(** Running litmus tests in a testing environment on a simulated device.

    One call = one testing campaign: [iterations] kernel launches, each
    executing the environment's full complement of test instances,
    counting how many instances exhibit the test's target behaviour
    ({e kills} for mutants, {e violations} for conformance tests) and
    accumulating simulated time for death-rate computation (Sec. 5.2).

    The weak-memory amplification applied to every instance combines the
    device's occupancy response (more concurrent instances → more
    contention), the memory-stress response, the pairing quality of the
    coprime permutation, and location contention from the memory stride —
    the mechanisms Sec. 4.1 credits for PTE's effectiveness and its
    synergy with stress.

    Performance note: instances whose role start times are separated by
    more than the weak-memory horizon (slices plus 30 mean visibility and
    staleness windows) are scored as non-kills without full simulation.
    For every generated target this is exact — each target requires
    cross-thread interaction within the horizon — up to a [e^-30]
    tail approximation of the exponential delays. *)

type engine = Request.engine =
  | Interpreter
      (** {!Mcm_gpu.Instance.run} per instance — the allocation-heavy
          reference implementation, kept for differential testing. *)
  | Kernel
      (** {!Mcm_gpu.Kernel}: the (test, device, env) triple is compiled
          once per campaign and every domain runs instances against a
          reused per-domain workspace, allocation-free in steady state.
          Bit-identical to [Interpreter] — same PRNG draws, same
          outcomes — and the default. *)

type result = {
  kills : int;  (** instances that exhibited the target behaviour *)
  instances : int;  (** total instances executed *)
  iterations : int;  (** kernel launches performed *)
  sim_time_s : float;  (** total simulated testing time, seconds *)
  rate : float;  (** kills per simulated second — the mutant death rate *)
}

val amplification : Mcm_gpu.Device.t -> Params.t -> roles:int -> float
(** The weak-memory amplification the campaign will apply — exposed for
    reports and ablation benches. *)

val layout_of_env : Params.t -> Mcm_memmodel.Scope.layout
(** The thread layout the engines execute under: {!Params.Inter_workgroup}
    environments give every role its own workgroup
    ({!Mcm_memmodel.Scope.Inter}), {!Params.Intra_workgroup} puts all
    roles in one ({!Mcm_memmodel.Scope.Intra}). The oracle must be
    queried at the same layout for its allowed sets to be exact. *)

(** Per-behaviour outcome counts of a campaign, the breakdown MCS testing
    tools report (see {!Mcm_litmus.Classify}). [skipped] counts instances
    short-circuited by the weak-memory horizon; their roles never
    overlapped, so their outcomes are sequential by construction. *)
type histogram = {
  sequential : int;
  interleaved : int;
  weak : int;
  forbidden : int;
  skipped : int;
}

(** {2 The raw engine}

    [run_campaign] is the compute primitive beneath the pipeline: one
    campaign, no request, context, or store involvement. It is what
    {!exec} calls after planning, and what the pipeline-overhead bench
    ([make bench-pipeline]) dispatches directly to hold the unified
    path to its overhead contract. Ordinary callers want {!exec}. *)

(** The raw totals of a campaign, summed over iterations. All fields
    are associative sums (the outcome set is a sorted-unique merge), so
    any partition of the iteration axis folds to the same tally. *)
type tally = {
  t_kills : int;
  t_sequential : int;
  t_interleaved : int;
  t_weak : int;
  t_forbidden : int;
  t_skipped : int;
  t_outcomes : Mcm_litmus.Litmus.outcome list;
      (** distinct outcomes of executed instances, sorted; empty unless
          [collect] was set. *)
}

val run_campaign :
  ?engine:engine ->
  ?plan:Request.plan ->
  ?pool:Mcm_util.Pool.t ->
  ?domains:int ->
  ?chunk:int ->
  ?collect:bool ->
  classify:(Mcm_litmus.Litmus.outcome -> Mcm_litmus.Classify.behaviour) option ->
  device:Mcm_gpu.Device.t ->
  env:Params.t ->
  test:Mcm_litmus.Litmus.t ->
  iterations:int ->
  seed:int ->
  unit ->
  result * tally
(** One campaign, eagerly computed. [classify] fills the behaviour
    buckets ([None] leaves them zero); [collect] (default [false])
    accumulates the observed-outcome set. [domains]/[chunk] shard the
    iteration axis over a transient pool, or over [pool] when given (a
    borrowed pool, not shut down; it overrides [domains]); the tally is
    bit-identical for every sharding.

    [plan] (default {!Request.Schema}) picks the compile/memoization
    strategy: [Per_cell] compiles a fresh kernel and derives the full
    campaign prefix from scratch — the reference path; [Schema] reuses
    the memoized prefix (compiled image, effective weak params,
    instance counts, horizon) and a per-domain workspace arena across
    cells sharing the canonical prefix. The two plans are bit-identical
    in result and tally — memoized values are pure functions of the
    prefix, and shared scratch never influences a PRNG draw (see
    {!Mcm_gpu.Kernel}). *)

(** {2 The unified pipeline}

    [exec] is {e the} way to run a campaign: a {!Request.t} names the
    cell, a {!Request.ctx} supplies execution resources, and a collector
    picks what the campaign returns — which also indexes the persisted
    payload shape, so one collector-indexed codec
    ({!kind}/{!encode}/{!decode}) serves all three. *)

(** What a campaign collects, indexing its return (and payload) type. *)
type _ collect =
  | Rate : result collect  (** kills and death rate only *)
  | Histogram : (result * histogram) collect
      (** plus the per-behaviour outcome classification *)
  | Outcomes : (result * Mcm_litmus.Litmus.outcome list) collect
      (** plus the deduplicated, sorted observed-outcome set *)

val exec : 'a collect -> Request.t -> Request.ctx -> 'a
(** [exec collect request ctx] runs the campaign [request] names.
    Fully deterministic in the request: the result is {e bit-identical}
    for every [ctx.domains]/[ctx.chunk] value, with or without a
    borrowed [ctx.pool] (each iteration derives its PRNG independently
    via [Prng.mix seed it]; tallies sum associatively) and for warm
    versus cold [ctx.store] (codecs round-trip exactly).
    When [ctx.store] is set the cell is memoized under
    [Request.key ~kind:(kind collect)]; a cached payload that fails to
    decode is recomputed but not re-stored (first write wins). The store
    handle must belong to the calling domain — worker domains only ever
    compute. [ctx.journal] is ignored here; journaling is a multi-cell
    concern (see {!Mcm_campaign.Sched} and [Mcm_harness.Grid]). *)

val kind : 'a collect -> string
(** The cell-kind string keyed into the store: [Rate] → ["run"],
    [Histogram] → ["histogram"], [Outcomes] → ["outcomes"]. *)

val encode : 'a collect -> 'a -> Mcm_util.Jsonw.t
(** The persisted payload codec of a collector. [decode] inverts
    [encode] exactly — floats round-trip through {!Mcm_util.Jsonw}'s
    [%.17g] printing — which the warm-path bit-identity contract relies
    on. *)

val decode : 'a collect -> Mcm_util.Jsonw.t -> ('a, string) Stdlib.result

(** {2 Engine counters}

    Process-wide compile/memoization totals, reported by sweep drivers
    and [mcmutants report] next to the store's hit/miss stats. Cheap
    atomics bumped per cell (never per instance); monotone, so drivers
    snapshot before/after and {!engine_stats_sub} the two. *)

type engine_stats = {
  kernels_compiled : int;
      (** structural images compiled from scratch ({!Mcm_gpu.Kernel}
          [compile] calls, including cache misses) *)
  schema_reuses : int;
      (** cells served by a memoized image or campaign prefix instead of
          a fresh compilation *)
  workspaces_built : int;  (** workspaces allocated by the schema arena *)
  workspace_reuses : int;
      (** cross-cell workspace rebinds (same image, different cell) *)
}

val engine_stats : unit -> engine_stats
(** The current process-wide totals. *)

val engine_stats_sub : engine_stats -> engine_stats -> engine_stats
(** Field-wise difference, for before/after deltas. *)

val pp_engine_stats : Format.formatter -> engine_stats -> unit
(** ["N kernel(s) compiled, N schema reuse(s), N workspace reuse(s)"]. *)

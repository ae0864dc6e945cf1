(** Tuning sweeps over testing environments (Sec. 5.1).

    The paper tunes by running every mutant in 150 randomly generated
    testing environments of each kind — single-instance (SITE) and
    parallel (PTE) — plus the two stress-free baselines, on four devices.
    This module reproduces that sweep at a configurable scale: the
    default shrinks environment sizes, environment counts and iteration
    counts so the whole evaluation runs in seconds, while the structure
    (and the resulting comparisons) match the paper; setting the
    [MCM_SCALE] environment variable to [1.0] runs the full-size sweep. *)

module Params = Mcm_testenv.Params

(** The four environment categories of Sec. 5.1. *)
type category = Site_baseline | Site | Pte_baseline | Pte

val category_name : category -> string
(** ["SITE-baseline"], ["SITE"], ["PTE-baseline"], ["PTE"]. *)

val all_categories : category list

type config = {
  n_envs : int;  (** random environments per tunable category (paper: 150) *)
  site_iterations : int;  (** iterations per SITE run (paper: 300) *)
  pte_iterations : int;  (** iterations per PTE run (paper: 100) *)
  scale : float;  (** environment-size shrink factor in (0, 1] *)
  seed : int;
}

val default_config : unit -> config
(** Bench-scale defaults, overridable through the environment variables
    [MCM_SCALE] (float), [MCM_ENVS], [MCM_SITE_ITERS], [MCM_PTE_ITERS]
    and [MCM_SEED]. A set-but-malformed variable raises [Failure] with a
    message naming the variable — it never silently falls back to the
    default. *)

val env_float : string -> float -> float
val env_int : string -> int -> int
(** [env_float name default] / [env_int name default] read an optional
    environment variable strictly: unset or empty → [default]; set but
    unparseable → [Failure "invalid env var NAME=..."]. Shared by every
    [MCM_*] consumer so the failure mode is uniform. *)

val envs_for : config -> category -> Params.t list
(** The environments of a category: the single scaled baseline, or
    [n_envs] randomly drawn (deterministically from [config.seed])
    scaled environments. *)

(** One (category, environment, device, test) measurement. *)
type run = {
  category : category;
  env_index : int;
  env : Params.t;
  device : Mcm_gpu.Device.t;
  test_name : string;
  mutator : Mcm_core.Mutator.kind;
  result : Mcm_testenv.Runner.result;
}

val sweep_key :
  config -> devices:Mcm_gpu.Device.t list -> tests:Mcm_core.Suite.entry list -> Mcm_campaign.Key.t
(** The content key identifying a sweep's full configuration — what a
    {!Mcm_campaign.Journal} records so a resumed run can check it is
    resuming the {e same} sweep. *)

val sweep :
  ?ctx:Mcm_testenv.Request.ctx ->
  ?devices:Mcm_gpu.Device.t list ->
  ?tests:Mcm_core.Suite.entry list ->
  config ->
  run list
(** [sweep config] runs every category × environment × device × test
    combination as one {!Grid} under [ctx] (default
    {!Mcm_testenv.Request.serial}). [devices] defaults to the four
    correct study devices and [tests] to the 32 mutants of the generated
    suite. Deterministic in [config].

    Every grid point derives its seed independently from [config.seed]
    and results are collected back in grid order, so the returned list is
    identical for every [ctx.domains] value. A context with a store
    routes the grid through {!Mcm_campaign.Sched} — cached cells served
    from disk, misses persisted in durable shards, bit-identical to an
    uncached sweep; with a journal too, progress is checkpointed under
    {!sweep_key}, making a killed sweep resumable with nothing
    replayed. *)

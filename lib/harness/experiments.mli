(** Experiment drivers: one per table and figure of the paper.

    Each driver returns renderable {!Mcm_util.Table.t} values whose rows
    match what the paper reports; the bench executable and the
    [mcmutants] CLI print them. See EXPERIMENTS.md for the paper-vs-
    measured record. *)

module Table : sig
  include module type of Mcm_util.Table
end

val table2 : unit -> Mcm_util.Table.t
(** Tab. 2: conformance tests and mutants per mutator. *)

val table3 : unit -> Mcm_util.Table.t
(** Tab. 3: the simulated device inventory. *)

(** Fig. 5: mutation scores and average mutant death rates, per mutator
    (a–f), combined (g–h), and averaged across devices (i–j, the [All]
    rows), rendered from a {!Results.t}. *)
module Fig5 : sig
  val all_tables : Results.t -> (string * Mcm_util.Table.t) list
  (** Every Fig. 5 panel, titled (a)–(h): rows are the table's devices
      plus [All], columns the four environment categories, cells
      {!Results.score} or {!Results.death_rate}. *)

  val tuning_time : Results.t -> (string * float) list
  (** Simulated tuning time per category in seconds — the Sec. 5.1
      tuning-cost comparison. *)
end

(** Fig. 6: mutation score under a single merged per-test environment
    (Alg. 1) as a function of the per-test time budget, for
    reproducibility targets 95% and 99.999%, for SITE and PTE. *)
module Fig6 : sig
  val budgets : float list
  (** The swept per-test budgets in seconds: 4⁻⁵ (≈1/1024 s) … 4³ (64 s). *)

  val targets : float list
  (** 0.95 and 0.99999. *)

  val table : Results.t -> Mcm_util.Table.t
  (** Rows = budgets, columns = category × target series, cells =
      {!Results.merge_score}. *)
end

(** Tab. 4: Pearson correlation between killing a mutant and observing a
    real (injected) bug across random parallel testing environments. *)
module Table4 : sig
  type row = {
    vendor : string;
    failed_test : string;  (** the conformance test revealing the bug *)
    mutant_type : string;  (** the paired mutator's name *)
    best_mutant : string;  (** the mutant variant with the highest PCC *)
    pcc : float;
    p_value : float;  (** Student's t-test significance *)
    n_envs : int;
  }

  val cases : (Mcm_gpu.Profile.t * string * string) list
  (** The three (vendor profile, conformance test, mutator name) case
      studies of Sec. 5.4 — also the matrix shape the schemata bench
      reuses. *)

  val compute :
    ?ctx:Mcm_testenv.Request.ctx ->
    ?n_envs:int ->
    ?iterations:int ->
    ?scale:float ->
    ?seed:int ->
    unit ->
    row list
  (** Runs the correlation study (paper: 150 environments, 100
      iterations; defaults here are bench-scale and read [MCM_SCALE],
      strictly — a malformed value raises). Devices carry their
      {!Mcm_gpu.Bug.paper_bug} injection. The whole study is one {!Grid}
      under [ctx] (default serial): [ctx.domains] fans the
      per-environment campaigns over a {!Mcm_util.Pool} — the rows are
      identical for every value (each campaign is seeded from its grid
      coordinates alone) — and [ctx.store] memoizes each campaign through
      {!Mcm_campaign.Sched}, preserving bit-identity. The study never
      journals ([ctx.journal] is ignored): it is cheap and shares store
      directories with tuning sweeps. *)

  val table : row list -> Mcm_util.Table.t
end

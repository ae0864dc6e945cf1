(** Testing-environment parameters.

    Prior work (Kirkham et al., which the paper builds on) exposes 17
    tunable parameters; this module models all of them, plus the paper's
    own contribution: whether test instances run singly (SITE) or packed
    in parallel across every testing thread (PTE, Sec. 4.1). Random
    instantiation of these parameters is how environments are tuned
    (Sec. 5.1). *)

(** Memory access pattern used by stressing threads. *)
type stress_pattern = Store_store | Store_load | Load_store | Load_load

(** How stressing threads pick their target lines. *)
type stress_strategy = Round_robin | Chunking

(** Single-instance (SITE) or parallel (PTE) testing. *)
type mode = Single | Parallel

(** Which level of the GPU execution hierarchy the test instances span.
    The paper evaluates only {!Inter_workgroup} (Sec. 1.2);
    {!Intra_workgroup} is the extension it leaves to future work —
    instance roles are placed on threads of one workgroup, where
    scheduling is tighter and caches are shared. *)
type scope = Inter_workgroup | Intra_workgroup

type t = {
  mode : mode;
  scope : scope;
  (* 1-2: testing thread layout *)
  testing_workgroups : int;
  threads_per_workgroup : int;
  (* 3-4: scheduling heuristics *)
  shuffle_pct : int;  (** probability (%) that thread ids are shuffled *)
  barrier_pct : int;  (** probability (%) that a barrier aligns test threads *)
  (* 5-10: memory stress from dedicated stressing threads, and
     pre-stress performed by the testing threads themselves *)
  mem_stress_pct : int;
  mem_stress_iterations : int;
  mem_stress_pattern : stress_pattern;
  pre_stress_pct : int;
  pre_stress_iterations : int;
  pre_stress_pattern : stress_pattern;
  (* 11-15: stress memory shape *)
  stress_line_size : int;
  stress_target_lines : int;
  scratch_memory_size : int;
  mem_stride : int;
  stress_strategy : stress_strategy;
  (* 16-17: the coprime multipliers of the parallel permutation *)
  permute_first : int;  (** multiplier for memory-location spreading *)
  permute_second : int;  (** multiplier for thread↔instance pairing *)
}

val site_baseline : t
(** Sec. 5.1's SITE Baseline: one test instance, 32 workgroups, no added
    stress. *)

val pte_baseline : t
(** Sec. 5.1's PTE Baseline: 1024 testing workgroups of 256 threads, no
    added stress. *)

val random : Mcm_util.Prng.t -> mode -> t
(** [random g mode] draws a random environment for tuning, with parameter
    ranges following the published artifact's tuning config. *)

val with_scope : t -> scope -> t
(** [with_scope env s] is [env] testing at scope [s]. *)

val scaled : t -> float -> t
(** [scaled env f] multiplies the thread-layout sizes by [f] (min 1 / 2
    workgroups), used to shrink the paper's full-scale environments to
    bench scale while preserving their structure. *)

(** Derived quantities consumed by the runner. *)

val instances_per_iteration : t -> roles:int -> int
(** Number of test instances per kernel launch: equal to the total
    testing-thread count in [Parallel] mode (each thread runs one role
    slice of [roles] instances back to back, Fig. 4), [1] in [Single]
    mode. *)

val stress_intensity : t -> float
(** Aggregate memory-stress intensity in [\[0,1\]], combining stress
    probability, loop length, access pattern, line contention and
    strategy. Zero for the baselines. *)

val jitter_scale : t -> float
(** Multiplier on the device's start-time jitter induced by shuffling,
    pre-stress and stress traffic. *)

val alignment : t -> float
(** In [\[0,1\]]: how strongly barriers align test-thread starts. *)

val location_contention : t -> float
(** In [\[0,1\]]: how much testing locations share cache lines, from
    [mem_stride] vs [stress_line_size]. *)

val extra_instrs_per_thread : t -> int
(** Expected extra per-thread instructions from pre-stress and stress
    loops — feeds the kernel timing model. *)

val pp : Format.formatter -> t -> unit
val to_json : t -> Mcm_util.Jsonw.t

val of_json : Mcm_util.Jsonw.t -> (t, string) result
(** Inverse of {!to_json} — the wire codec the serve protocol uses to
    ship environments. [of_json (to_json env) = Ok env] for every [env]
    with at least one testing workgroup and one thread per workgroup,
    which covers the baselines and every {!random} env. Errors name the
    missing, ill-typed or out-of-range field: [testingWorkgroups] and
    [threadsPerWorkgroup] below 1 are refused, since role assignment
    divides by them. *)

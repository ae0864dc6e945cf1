(** Thread↔test-instance assignment and start-time synthesis (Sec. 4.1).

    In a parallel testing environment every physical testing thread runs
    one role slice of several instances back to back: thread [v] executes
    role 0 of instance [v], then role 1 of instance [perm v], then role 2
    of instance [perm (perm v)], where [perm] is the paper's coprime
    modular permutation [v ↦ v·P mod N]. This pairs every instance's
    roles on distinct, non-repeating threads with no divergent control
    flow.

    The physical start time of a thread encodes the simulated GPU's
    scheduling: workgroups launch in waves of [compute_units], separated
    by the profile's workgroup spacing (shrunk when barrier alignment is
    on), plus a per-CU skew, a per-warp lane offset, and exponential
    jitter (inflated by shuffling, pre-stress and memory-stress traffic).

    In single-instance mode ([Params.Single]) there is exactly one
    instance and its roles are placed in distinct workgroups spread over
    the grid, as prior work does. *)

type t
(** The draw-independent part of one campaign's role assignment: the
    workgroup spacing and compute-unit offset after barrier alignment,
    the start-jitter mean (stress and pre-stress inflation included),
    the shuffle probability, the coprime multiplier snapped to its
    carrier, and each role's slice duration. Built once per campaign
    prefix; immutable, so any domain may use it. *)

val make :
  profile:Mcm_gpu.Profile.t -> env:Params.t -> slice_instrs:int array -> instances:int -> t
(** [make ~profile ~env ~slice_instrs ~instances] hoists the constants
    for campaigns of a test whose role [r] has [slice_instrs.(r)]
    instructions. In parallel mode [instances] must equal the number of
    testing threads; pairing uses [env.permute_second].

    @raise Invalid_argument in parallel mode if
    [env.threads_per_workgroup < 1]. *)

val fill : t -> prng:Mcm_util.Prng.t -> float array
(** [fill a ~prng] draws one iteration's start times from [prng] and
    returns them in this domain's flat, instance-major buffer: with
    [roles = Array.length slice_instrs], role [r] of instance [i] starts
    at index [i * roles + r] (ns). Entries past [instances * roles] are
    stale. The buffer is grown on demand and reused, so it is
    overwritten by the next [fill] on the same domain.

    [prng] is advanced exactly as the boxed generator would be: one
    exponential draw per testing thread, preceded in parallel mode by
    the shuffle decision and, when it fires, a Fisher–Yates shuffle of
    the workgroup launch order. The draws go through {!Mcm_util.Prng.Raw},
    so a steady-state call allocates nothing per instance. *)

val pairing_quality : Params.t -> float
(** How well the pairing permutation spreads thread interactions: [1.0]
    for a non-trivial coprime multiplier, lower for the degenerate
    [v ↦ v] mapping prior work found ineffective. Feeds the weak-memory
    amplification in {!Runner}. *)

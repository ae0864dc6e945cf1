(** Memory consistency specifications (paper Sec. 2.1).

    Each model instantiates the happens-before relation [hb] over a
    candidate execution and deems the execution consistent when [hb] is
    acyclic and RMW atomicity holds. The three models are exactly those
    the paper uses:

    - {!Sc}: [hb = po ∪ com] — sequential consistency.
    - {!Sc_per_location}: [hb = po-loc ∪ com] — the coherence baseline
      common to all GPU languages, and WebGPU's model for plain atomics.
    - {!Relacq_sc_per_location}: adds [po ; sw ; po] for release/acquire
      fences — the earlier WGSL model whose over-strength this paper's bug
      report exposed. *)

type t = Sc | Sc_per_location | Relacq_sc_per_location

val all : t list
(** The three models, strongest first. *)

val name : t -> string
(** Short printable name, e.g. ["rel-acq-SC-per-loc"]. *)

val of_string : string -> t option
(** Parses the output of [name] (case-insensitive); also accepts the
    aliases ["sc"], ["coherence"], ["sc-per-loc"], ["relacq"]. *)

val hb_base : t -> [ `Po | `Po_loc ]
(** The choice-independent skeleton of [m]'s happens-before relation:
    full program order for {!Sc}, its same-location restriction for the
    per-location models. Together with {!hb_includes_sw} this is the
    decomposition [hb = base ∪ com (∪ po;sw;po)] that {!hb} computes and
    the oracle's propagation engine rebuilds edge-by-edge. *)

val hb_includes_sw : t -> bool
(** Whether [m]'s happens-before includes the release/acquire ordering
    [po ; sw ; po] (true only for {!Relacq_sc_per_location}). *)

val hb : t -> Execution.t -> Relation.t
(** [hb m x] is the happens-before relation [m] induces over [x]
    (not transitively closed): [hb_of m (Execution.relations x)]. *)

val hb_of : t -> Execution.relations -> Relation.t
(** [hb_of m r] is [m]'s happens-before relation over a candidate whose
    derived relations the caller already holds: [base ∪ com], with
    [po ; sw ; po] added only when {!hb_includes_sw}. *)

val rmw_atomic : Execution.t -> bool
(** [rmw_atomic x] checks RMW atomicity: in the coherence order of its
    location, every RMW is placed immediately after the write it reads
    from (first, when it reads the initial state) — no foreign write
    intervenes between an RMW's read and its write. *)

val atomicity_violation : Execution.t -> string option
(** [atomicity_violation x] explains the first RMW-atomicity failure —
    which RMW, what it reads from, and where it sits in the coherence
    order — or [None] exactly when {!rmw_atomic} holds. Complements
    {!hb_cycle} in counter-example reports: an inconsistent candidate
    has a happens-before cycle, an atomicity violation, or both. *)

val consistent : t -> Execution.t -> bool
(** [consistent m x] holds when [hb m x] is acyclic and [rmw_atomic x].
    These are exactly the candidate executions the platform is allowed to
    produce under [m]. *)

val consistent_with : t -> Execution.t -> Execution.relations -> bool
(** [consistent_with m x r] is {!consistent}[ m x] for a caller that
    already holds [r = Execution.relations x]: one set of relations
    serves every check of one candidate. *)

val hb_cycle : t -> Execution.t -> string option
(** [hb_cycle m x] renders the happens-before cycle making [x]
    inconsistent (e.g. ["b -> c -> a -> b"]), or [None] if [x] is
    consistent apart from possible atomicity violations. Used in
    counter-example reports. *)

val hb_cycle_with : t -> Execution.t -> Execution.relations -> string option
(** {!hb_cycle} over relations the caller already holds, as
    {!consistent_with}. *)

val weaker_or_equal : t -> t -> bool
(** [weaker_or_equal m m'] holds when every execution consistent under
    [m'] is consistent under [m] — i.e. [m] is the weaker (more
    permissive) specification. The three models form a chain:
    SC-per-location ⊇ rel-acq ⊇ SC in permissiveness. *)

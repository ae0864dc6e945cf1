(** Allowed-outcome sets: the oracle's answer for one (model, test) pair.

    Projecting the consistent candidate executions of a litmus test onto
    what a run makes observable — final registers and final memory —
    yields the {e exact} set of outcomes the model allows the test to
    produce. This set is the oracle every consumer checks against: the
    simulator is sound iff every outcome it ever produces is a member
    ({!Soundness}), and a mutant is valid iff its target intersects the
    set while its conformance twin's target does not ({!Certify}).

    Every query takes an [?engine] selector ({!Engine.t}, default
    {!Engine.default}[ = Propagate]). The two engines produce
    bit-identical results — same sets, same witnesses — so the selector
    is purely a cost knob; [Enumerate] stays available as the
    brute-force differential reference. *)

type set
(** A canonical (sorted, duplicate-free) set of outcomes. Two [set]s
    computed in any order — serially or sharded across a domain pool —
    are structurally equal iff they contain the same outcomes. *)

val allowed :
  ?engine:Engine.t ->
  ?layout:Mcm_memmodel.Scope.layout ->
  Mcm_memmodel.Model.t ->
  Mcm_litmus.Litmus.t ->
  set
(** [allowed m t] visits every candidate execution of [t] consistent
    under [m] (through [engine]) and projects them onto outcomes. *)

val allowed_grid :
  ?engine:Engine.t ->
  ?layout:Mcm_memmodel.Scope.layout ->
  ?domains:int ->
  (Mcm_memmodel.Model.t * Mcm_litmus.Litmus.t) list ->
  set list
(** [allowed_grid ~domains points] is [List.map (fun (m, t) -> allowed m t)]
    with the grid points sharded across a {!Mcm_util.Pool} of [domains]
    domains (default: serial). Results are positionally aligned with the
    input and bit-identical for every [domains] value. *)

val elements : set -> Mcm_litmus.Litmus.outcome list
(** The outcomes, in canonical order. *)

val of_outcomes : Mcm_litmus.Litmus.outcome list -> set
(** Canonicalise an arbitrary outcome list (sort, dedup). *)

val size : set -> int
val mem : set -> Mcm_litmus.Litmus.outcome -> bool
val subset : set -> set -> bool
val equal : set -> set -> bool

val target_allowed :
  ?engine:Engine.t ->
  ?layout:Mcm_memmodel.Scope.layout ->
  Mcm_memmodel.Model.t ->
  Mcm_litmus.Litmus.t ->
  bool
(** [target_allowed m t] holds when some consistent candidate under [m]
    exhibits [t]'s target behaviour. Short-circuits at the first
    witness rather than building the full set. *)

val witness :
  ?engine:Engine.t ->
  ?layout:Mcm_memmodel.Scope.layout ->
  Mcm_memmodel.Model.t ->
  Mcm_litmus.Litmus.t ->
  Mcm_memmodel.Execution.t option
(** [witness m t] is a consistent candidate exhibiting the target, when
    one exists — the evidence attached to "allowed" certificates. Both
    engines visit consistent candidates in the same order, so the
    returned witness is engine-independent. *)

val counterexample :
  ?engine:Engine.t ->
  ?layout:Mcm_memmodel.Scope.layout ->
  Mcm_memmodel.Model.t ->
  Mcm_litmus.Litmus.t ->
  Mcm_litmus.Litmus.outcome ->
  string option
(** [counterexample m t o] explains why outcome [o] is {e not} allowed
    under [m]: the happens-before cycle or RMW-atomicity violation of a
    candidate producing [o] ({!Mcm_litmus.Enumerate.explain} with
    [~last:true]: it prefers a candidate whose only defect is the
    cycle), or a note that no rf/co assignment produces [o] at all.
    [None] when [o] is allowed. *)

val outcome_to_json : Mcm_litmus.Litmus.outcome -> Mcm_util.Jsonw.t
(** One outcome as [{"regs": [[...]], "final": [...]}]. *)

val to_json : set -> Mcm_util.Jsonw.t
(** The set as a JSON list of {!outcome_to_json} objects. *)

val pp : Format.formatter -> set -> unit
(** One outcome per line, rendered by {!Mcm_litmus.Litmus.outcome_to_string}. *)

(** Mutant-validity certification.

    The mutation-testing methodology silently assumes two things about
    every generated test: a conformance test's target really is
    {e disallowed} under its MCS (observing it is a definite violation),
    and a mutant's target really is {e allowed} (a correct platform may
    produce it, so a good testing environment should). This module
    re-proves both by exhaustive search, as a decision separate from the
    {!Mcm_core.Template} derivation that produced the targets (both
    walk {!Mcm_litmus.Enumerate}'s tree through
    {!Mcm_memmodel.Model.consistent} and the same outcome projection;
    the test suites check those against independent references) — and
    rejects {e vacuous} mutants whose target a purely serial execution
    could exhibit (such a target would "die" without any scheduling or
    weak-memory interaction, certifying nothing).

    Every certificate carries evidence: a consistent witness execution's
    outcome for "allowed", a forbidden happens-before cycle (or RMW
    atomicity violation) for "disallowed".

    The [?engine] selector ({!Engine.t}, default [Propagate]) picks the
    consistent-execution engine behind the witness searches; verdicts
    are engine-independent because the engines agree candidate-for-
    candidate. The forbidden-cycle evidence
    ({!Mcm_litmus.Enumerate.explain}, on the last exhibiting candidate)
    always walks the unpruned tree — it needs {e inconsistent}
    candidates, which {!Propagate} prunes by design. *)

type verdict = {
  test : string;  (** test name *)
  model : Mcm_memmodel.Model.t;  (** the MCS certified against *)
  role : string;  (** ["conformance"], ["mutant of X"] or ["library"] *)
  ok : bool;
  detail : string;  (** evidence, or the reason for failure *)
}

type report = {
  verdicts : verdict list;  (** one per certified test, input order *)
  failures : int;  (** number of verdicts with [ok = false] *)
}

val conformance :
  ?engine:Engine.t -> ?layout:Mcm_memmodel.Scope.layout -> Mcm_litmus.Litmus.t -> verdict
(** [conformance t] certifies that [t]'s target is disallowed under
    [t.model] and non-vacuous (some candidate execution — necessarily
    inconsistent — exhibits it). Evidence: the forbidden cycle. *)

val mutant :
  ?engine:Engine.t ->
  ?layout:Mcm_memmodel.Scope.layout ->
  ?role:string ->
  Mcm_litmus.Litmus.t ->
  verdict
(** [mutant t] certifies that [t]'s target is allowed under [t.model]
    (evidence: a witness outcome) and non-vacuous: no whole-thread-
    at-a-time serial execution exhibits it, so killing the mutant
    requires genuine interleaving or weak-memory behaviour. *)

val suite : ?engine:Engine.t -> ?domains:int -> unit -> report
(** [suite ()] certifies the entire generated suite
    ({!Mcm_core.Suite.all}): every conformance test via {!conformance},
    every mutant via {!mutant} — proving each mutator product flips its
    targeted behaviour from disallowed (edge intact) to allowed (edge
    disrupted, see {!Mcm_core.Mutator.disruption}). [domains] shards
    the per-test work across a {!Mcm_util.Pool}; the report is
    bit-identical for every value. *)

val library : ?engine:Engine.t -> ?domains:int -> unit -> report
(** [library ()] certifies every hand-written classic test against its
    documented status ({!Mcm_litmus.Library.expectation}): enumeration
    must find the target allowed (with witness) or disallowed (with
    cycle) exactly as the library claims. *)

val report_to_json : report -> Mcm_util.Jsonw.t
val pp_report : Format.formatter -> report -> unit
(** Prints failing verdicts in full and a one-line summary. *)

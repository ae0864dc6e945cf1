(** The candidate-execution enumerator.

    A candidate execution of a litmus test is one reads-from choice per
    read — the zero-initialised initial state or any same-location
    write — crossed with one coherence order per location (Sec. 2.2).
    Litmus tests are small enough to walk {e every} candidate, and this
    module is the one place that walks them: a depth-first decision
    tree, streamed through {!fold}, so nothing is retained beyond the
    caller's accumulator. The oracle's propagation engine
    ({!Mcm_oracle.Propagate}) prunes the same tree, built from {!space}
    and {!rf_choices}.

    [?layout] (default {!Mcm_memmodel.Scope.Inter}; the CAT queries
    always use it) is the workgroup layout the test is compiled under;
    it decides which fence pairs can synchronise when fences carry
    workgroup scope.

    The queries below power the reproduction's core invariant: for
    every generated conformance test the target behaviour is
    {e disallowed} under its MCS, and for every mutant it is
    {e allowed}. *)

(** {1 The decision tree} *)

(** The candidate space of a compiled test: which events choose rf
    sources, and which writes each location offers them. *)
type space = {
  events : Mcm_memmodel.Event.t array;
  reads : int list;  (** read/RMW event ids, ascending *)
  writes_by_loc : (int * int list) list;
      (** per location (ascending), write ids in id order *)
}

val space : ?layout:Mcm_memmodel.Scope.layout -> Litmus.t -> space
(** [space t] compiles [t] and lays out its candidate space. *)

val rf_choices : space -> int -> int option list
(** [rf_choices sp r] is read [r]'s choice list, in decision order: the
    initial state first ([None]), then every same-location write other
    than [r] itself in id order (an RMW cannot read its own write). *)

val fold :
  ?layout:Mcm_memmodel.Scope.layout ->
  Litmus.t ->
  init:'a ->
  f:('a -> Mcm_memmodel.Execution.t -> 'a) ->
  'a
(** [fold t ~init ~f] folds [f] over every candidate execution of [t].
    The order is fixed: rf choices for the reads in ascending id order
    (outermost first), then each location's coherence permutations in
    ascending location order, lexicographic in write ids. Consistency
    is {e not} filtered. Each execution handed to [f] owns its [rf]
    array and [co] list, so [f] may retain it. *)

val iter :
  ?layout:Mcm_memmodel.Scope.layout -> Litmus.t -> f:(Mcm_memmodel.Execution.t -> unit) -> unit
(** [iter t ~f] is {!fold} ignoring the accumulator. Exceptions raised
    by [f] escape, which is how the first-hit queries exit early. *)

val fold_consistent :
  ?layout:Mcm_memmodel.Scope.layout ->
  Mcm_memmodel.Model.t ->
  Litmus.t ->
  init:'a ->
  f:('a -> Mcm_memmodel.Execution.t -> 'a) ->
  'a
(** [fold_consistent m t] restricts {!fold} to the candidates consistent
    under [m] — the executions the platform is allowed to produce. *)

val count : ?layout:Mcm_memmodel.Scope.layout -> Litmus.t -> int
(** [count t] is the size of [t]'s candidate space,
    [Π_reads (1 + same-location writes other than the read)
     × Π_locations (writes to the location)!], computed without
    enumerating. It saturates at [max_int] instead of wrapping, so a
    ceiling check on it cannot be bypassed through overflow. *)

val count_consistent :
  ?layout:Mcm_memmodel.Scope.layout -> Mcm_memmodel.Model.t -> Litmus.t -> int
(** [count_consistent m t] enumerates and counts the candidates
    consistent under [m]. *)

(** {1 Queries} *)

val outcomes : ?layout:Mcm_memmodel.Scope.layout -> Litmus.t -> Litmus.outcome list
(** [outcomes t] is the sorted, deduplicated list of outcomes over
    every candidate, consistent or not — the space a target is drawn
    from. *)

val consistent_outcomes :
  ?layout:Mcm_memmodel.Scope.layout -> Mcm_memmodel.Model.t -> Litmus.t -> Litmus.outcome list
(** [consistent_outcomes m t] is the sorted, deduplicated list of
    outcomes over candidates consistent under [m] — the set of
    behaviours [m] allows [t] to produce. *)

val witness :
  ?layout:Mcm_memmodel.Scope.layout ->
  Mcm_memmodel.Model.t ->
  Litmus.t ->
  Mcm_memmodel.Execution.t option
(** [witness m t] is the first consistent candidate (in {!fold} order)
    exhibiting the target, when one exists — evidence that the
    behaviour is allowed. Stops at the first hit. *)

val target_allowed : ?layout:Mcm_memmodel.Scope.layout -> Mcm_memmodel.Model.t -> Litmus.t -> bool
(** [target_allowed m t] is [witness m t <> None]. A conformance test
    must satisfy [not (target_allowed t.model t)]; a mutant must satisfy
    [target_allowed t.model t]. *)

val target_allowed_cat : Mcm_memmodel.Cat.t -> Litmus.t -> bool
(** Like {!target_allowed} for a parameterized CAT model — used to
    decide whether a behaviour is {e observable} on an implementation
    whose architecture model is known (Sec. 3.4's pruning, e.g. against
    x86-TSO). *)

val consistent_outcomes_cat : Mcm_memmodel.Cat.t -> Litmus.t -> Litmus.outcome list
(** The outcomes a CAT model allows [t] to produce. *)

val count_candidates : ?layout:Mcm_memmodel.Scope.layout -> Litmus.t -> int * int
(** [count_candidates t] is [(count t, count_consistent t.model t)] —
    handy for reports and sanity checks. *)

(** {1 Why a behaviour is forbidden} *)

(** What the candidates producing a behaviour show. *)
type evidence =
  | Unexhibited  (** no candidate produces the behaviour at all *)
  | Cycle of string  (** a happens-before cycle ({!Mcm_memmodel.Model.hb_cycle}) *)
  | Atomicity of string
      (** an RMW-atomicity violation ({!Mcm_memmodel.Model.atomicity_violation}) *)
  | Unexplained  (** producing candidates show neither *)

val explain :
  ?layout:Mcm_memmodel.Scope.layout ->
  ?last:bool ->
  Mcm_memmodel.Model.t ->
  Litmus.t ->
  (Litmus.outcome -> bool) ->
  evidence
(** [explain m t p] explains why no candidate producing an outcome
    satisfying [p] is consistent under [m]. Among the producing
    candidates it prefers those whose RMWs are all placed
    ({!Mcm_memmodel.Model.rmw_atomic}), so the reported cycle is the
    interesting defect, and reports the first hb cycle among them;
    failing that, an atomicity violation. [last] (default [false])
    takes the last such candidate in {!fold} order instead of the
    first. Meaningful only when [p] is in fact forbidden: an allowed
    outcome's consistent candidate has no defect, but others may. *)

val forbidden_cycle : ?layout:Mcm_memmodel.Scope.layout -> Litmus.t -> string option
(** [forbidden_cycle t] is the hb cycle {!explain} reports for [t]'s
    target under [t.model] (e.g. ["b -> c -> a -> b"]). [None] when the
    target is allowed, when no candidate exhibits it, or when the
    exhibiting candidates show no cycle. *)

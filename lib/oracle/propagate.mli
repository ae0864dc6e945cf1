(** The constraint-propagation oracle engine.

    {!Mcm_litmus.Enumerate} certifies by brute force: walk every
    reads-from assignment × coherence permutation, then filter through
    {!Mcm_memmodel.Model.consistent}. Its cost is the full candidate
    product, which explodes with threads × instructions. This engine
    walks the {e same} decision tree — rf choices for the reads in id
    order, then per-location coherence permutations, built from
    {!Mcm_litmus.Enumerate.space} and {!Mcm_litmus.Enumerate.rf_choices}
    — but interleaves generation with incremental consistency
    checking: after every choice it propagates the
    happens-before edges that choice makes definite (rf, the coherence
    chain, from-read edges whose source is settled, release/acquire
    [po;sw;po] edges) into a transitively closed reachability structure
    ({!Mcm_memmodel.Relation.Closure}), and prunes the entire subtree
    the moment a cycle closes or an RMW's coherence slot is taken.

    {b Pruning invariant}: every edge propagated at a partial assignment
    belongs to the happens-before relation of {e every} completion of
    that assignment, so a pruned subtree contains no consistent
    execution; and at a leaf the propagated edges span exactly the
    transitive closure of [Model.hb] while the placement checks enforce
    exactly [Model.rmw_atomic]. Hence the leaves reached are precisely
    the consistent candidates, {e in the order}
    {!Mcm_litmus.Enumerate.fold} visits them — outcome sets, witness
    choices and fold orders are
    bit-identical to the brute-force engine, which stays available as
    the differential reference. *)

type stats = {
  explored : int;  (** decision-tree nodes visited (rf choices + placements) *)
  pruned : int;  (** subtrees cut by constraint propagation *)
  consistent : int;  (** consistent executions reached *)
}

val fold_consistent :
  ?layout:Mcm_memmodel.Scope.layout ->
  Mcm_memmodel.Model.t ->
  Mcm_litmus.Litmus.t ->
  init:'a ->
  f:('a -> Mcm_memmodel.Execution.t -> 'a) ->
  'a
(** [fold_consistent m t] folds over exactly the candidates consistent
    under [m], in {!Mcm_litmus.Enumerate.fold}'s order. Each execution handed to
    [f] owns its [rf]/[co] structures and may be retained. Agrees with
    {!Mcm_litmus.Enumerate.fold_consistent} execution-for-execution. *)

val iter_consistent :
  ?layout:Mcm_memmodel.Scope.layout ->
  Mcm_memmodel.Model.t ->
  Mcm_litmus.Litmus.t ->
  f:(Mcm_memmodel.Execution.t -> unit) ->
  unit
(** [iter_consistent m t] is {!fold_consistent} ignoring the
    accumulator. Exceptions raised by [f] escape, which is how
    {!Outcome.witness} exits at the first hit. *)

val count_consistent :
  ?layout:Mcm_memmodel.Scope.layout -> Mcm_memmodel.Model.t -> Mcm_litmus.Litmus.t -> int
(** [count_consistent m t] counts the consistent candidates without
    materialising them. Agrees with
    {!Mcm_litmus.Enumerate.count_consistent}. *)

val stats :
  ?layout:Mcm_memmodel.Scope.layout -> Mcm_memmodel.Model.t -> Mcm_litmus.Litmus.t -> stats
(** [stats m t] runs the search and reports how much of the candidate
    space was actually visited — the pruning factor
    [Mcm_litmus.Enumerate.count t / explored] is the engine's asymptotic
    win. *)

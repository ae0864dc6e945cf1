(** Classifying observed outcomes, as MCS testing tools report them.

    The paper's testing framework buckets every observed outcome of a
    litmus test (the artifact's result JSON counts them per iteration):

    - {e sequential} — explainable by running the threads one after
      another in some order, with no interleaving at all;
    - {e interleaved} — requires interleaving thread execution but is
      still sequentially consistent;
    - {e weak} — allowed by the test's (relaxed) memory model but not by
      sequential consistency;
    - {e forbidden} — outside the test's model: an MCS violation.

    Classification is by exhaustive enumeration, computed once per test
    and reused per outcome. *)

type behaviour = Sequential | Interleaved | Weak | Forbidden

val behaviour_name : behaviour -> string

val classifier : Litmus.t -> Litmus.outcome -> behaviour
(** [classifier t] precomputes the outcome partition for [t] (cost: one
    pass over the candidates plus one run of every thread ordering, see
    {!work}) and returns a constant-time classification function.
    Outcomes outside the candidate space (impossible for well-formed
    runs) classify as [Forbidden]. *)

val outcome_sets : Litmus.t -> Litmus.outcome list * Litmus.outcome list * Litmus.outcome list
(** [outcome_sets t] is [(all, sc, allowed)], each sorted and
    duplicate-free: the outcomes of every candidate of [t], of those
    consistent under SC, and of those consistent under [t]'s own model —
    found in one pass over the candidates, with one set of relations per
    candidate serving both checks. {!classifier} partitions these. *)

val work : Litmus.t -> int
(** [work t] is the larger of [t]'s candidate count
    ({!Enumerate.count}) and its number of thread orders
    ([nthreads!]), saturating at [max_int]: both grow factorially, and
    {!classifier} visits every one. *)

val sequential_outcomes : Litmus.t -> Litmus.outcome list
(** [sequential_outcomes t] is the set of outcomes produced by executing
    the threads of [t] whole-thread-at-a-time, over every thread
    permutation — the baseline every platform must be able to produce. *)

(** Oracle-certified admission of generated litmus tests.

    Enumerated skeletons carry no target; this module derives one and
    lets the axiomatic oracle decide whether the program earns a place
    in the corpus. For each canonical program [P] under model [M] the
    gate computes three exact outcome sets through {!Mcm_oracle.Outcome}
    (all candidate outcomes; outcomes allowed under [M]; outcomes
    allowed under plain SC) plus the whole-thread serial baseline
    ({!Mcm_litmus.Classify.sequential_outcomes}), and derives:

    - a {e conformance} test whenever some candidate outcome is
      disallowed under [M] — its target is exactly the disallowed set;
    - a {e mutant} whenever [M] allows something beyond the serial
      baseline — preferring the {e weak} flavour (allowed under [M] but
      not under SC: genuine weak-memory behaviour, the classic
      two-location tests), falling back to the {e interleaved} flavour
      (SC-consistent but unreachable serially: killed by fine-grained
      interleaving alone, the paper's mutator-1 territory).

    Every derived test is then re-proved by {!Mcm_oracle.Certify} —
    an independent code path from the derivation — and admitted only
    with an [ok] verdict; programs deriving nothing are rejected, and
    behavioural duplicates (same canonical skeleton, model and polarity)
    are dropped. With [cross_check] the whole derivation re-runs under
    the second oracle engine and any difference — in the admitted set,
    a target, or a certificate — counts as a disagreement; the
    acceptance gate asserts the count is zero.

    Target descriptions are rendered exactly as
    {!Mcm_litmus.Parse.to_source} renders targets (a disjunction of
    full-outcome conjunctions, canonically sorted), so a generated
    test survives [parse ∘ print] with its description — and therefore
    its {!Mcm_campaign.Key.test_blob} and every store key — unchanged. *)

type polarity = Conformance | Mutant_weak | Mutant_interleaved

val polarity_name : polarity -> string
(** ["conformance"] / ["mutant-weak"] / ["mutant-interleaved"]. *)

val polarity_of_string : string -> polarity option

type entry = {
  test : Mcm_litmus.Litmus.t;
  polarity : polarity;
  skeleton : string;  (** canonical skeleton, {!Generate.to_string} form *)
  parent : string option;  (** operator mutants: the transformed test *)
  op : string option;  (** operator mutants: {!Mcm_core.Mutator.op_name} *)
  verdict : Mcm_oracle.Certify.verdict;  (** always [ok] for admitted entries *)
}

type stats = {
  raw : int;  (** pre-canonical programs surviving static prunes *)
  programs : int;  (** canonical programs examined *)
  candidates : int;  (** candidate executions enumerated across them *)
  admitted : int;
  conformance : int;
  weak : int;
  interleaved : int;
  operator_mutants : int;
  rejected : int;  (** programs (or variants) deriving no target *)
  duplicates : int;  (** behavioural duplicates dropped *)
  uncertified : int;  (** derived tests failing certification (gate bug) *)
  disagreements : int;  (** cross-engine divergences (must be 0) *)
}

val zero_stats : stats
val combine_stats : stats -> stats -> stats
val stats_fields : stats -> (string * Mcm_util.Jsonw.t) list

val generated :
  ?engine:Mcm_oracle.Engine.t ->
  ?cross_check:bool ->
  ?pool:Mcm_util.Pool.t ->
  ?bound:int ->
  ?seed:int ->
  ?shard:int * int ->
  model:Mcm_memmodel.Model.t ->
  Shape.t ->
  entry list * stats
(** [generated ~model shape] enumerates, samples (when [bound] caps the
    program count; [seed] drives the sample, default 0), derives,
    certifies and dedups. [pool] shards per-program oracle work over a
    lent {!Mcm_util.Pool} (the caller keeps it and shuts it down);
    without one the work runs serially. Results are bit-identical
    either way, for every pool size.

    [shard:(k, n)] keeps only candidates at index [i] with
    [i mod n = k] of the canonical (post-sample) program list, {e
    before} any oracle work: each of [n] shards does 1/[n] of the
    admission cost, shards are pairwise disjoint, and the union of all
    [n] shards' candidate sets is exactly the unsharded set. Raises
    [Invalid_argument] unless [0 <= k < n]. *)

val operator_mutants :
  ?engine:Mcm_oracle.Engine.t ->
  ?cross_check:bool ->
  ?pool:Mcm_util.Pool.t ->
  ?shard:int * int ->
  ops:Mcm_core.Mutator.op list ->
  Mcm_litmus.Litmus.t list ->
  entry list * stats
(** [operator_mutants ~ops tests] applies every operator to every test
    (typically the paper suite's conformance tests), derives a mutant
    target for each variant through the same ladder and admits it
    through the same gate. Variants keep their parent's concretisation
    so the relation to the parent stays readable; entry [family]
    records the operator. [pool] and [shard] work exactly as in
    {!generated}. *)

val certify :
  engine:Mcm_oracle.Engine.t -> polarity -> Mcm_litmus.Litmus.t -> Mcm_oracle.Certify.verdict
(** The certification call the gate itself makes for a polarity —
    exposed so {!Corpus.recertify} re-proves stored certificates through
    the identical path. *)

val dedup : entry list -> entry list * int
(** Drop entries equal on (canonical skeleton, model, polarity), keeping
    the first; returns survivors and the dropped count. *)

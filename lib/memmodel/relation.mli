(** Finite binary relations over event identifiers.

    Candidate executions of litmus tests are tiny (≤ 16 events), so
    relations are dense boolean matrices. This gives O(n³) transitive
    closure and trivially correct set algebra, which is what the MCS
    axioms (acyclicity of unions/compositions of relations) need. *)

type t
(** An immutable relation over the carrier [\[0, size)] — operations never
    mutate their arguments. *)

val empty : int -> t
(** [empty n] is the empty relation over [n] elements.
    @raise Invalid_argument if [n < 0]. *)

val size : t -> int
(** [size r] is the carrier size [r] was created with. *)

val of_list : int -> (int * int) list -> t
(** [of_list n pairs] is the relation containing exactly [pairs].
    @raise Invalid_argument if any index is outside [\[0, n)]. *)

val build : int -> ((int -> int -> unit) -> unit) -> t
(** [build n f] is the relation over [n] elements holding every pair
    [f] passes to the function it is given: one fresh matrix, filled in
    place, where folding {!add} copies the whole matrix per pair.
    @raise Invalid_argument if any index is outside [\[0, n)]. *)

val to_list : t -> (int * int) list
(** [to_list r] lists the pairs of [r] in lexicographic order. *)

val mem : t -> int -> int -> bool
(** [mem r a b] tests whether [a → b] is in [r]. *)

val add : t -> int -> int -> t
(** [add r a b] is [r] with the pair [a → b]. *)

val cardinal : t -> int
(** [cardinal r] is the number of pairs. *)

val union : t -> t -> t
(** [union r s] is [r ∪ s]. Carriers must match. *)

val inter : t -> t -> t
(** [inter r s] is [r ∩ s]. Carriers must match. *)

val compose : t -> t -> t
(** [compose r s] is the relational composition [r ; s]:
    [a → c] iff [∃ b. a →r b ∧ b →s c]. *)

val inverse : t -> t
(** [inverse r] swaps every pair. *)

val restrict : t -> (int -> int -> bool) -> t
(** [restrict r keep] retains only the pairs for which [keep a b]. *)

val transitive_closure : t -> t
(** [transitive_closure r] is the least transitive relation containing
    [r] (Floyd–Warshall). *)

val is_acyclic : t -> bool
(** [is_acyclic r] holds when no element reaches itself through one or more
    steps of [r] — when the diagonal of {!transitive_closure} is empty. A
    depth-first search decides it without building the closure; a
    self-loop makes the relation cyclic. *)

val is_total_order_on : t -> int list -> bool
(** [is_total_order_on r elems] checks that [r] restricted to [elems] is a
    strict total order (irreflexive, transitive, and any two distinct
    elements comparable). *)

val find_cycle : t -> int list option
(** [find_cycle r] is [Some cycle] — a list of distinct elements
    [e0; e1; ...; ek] with [ei → e(i+1)] and [ek → e0] — when [r] is
    cyclic, [None] otherwise. Used to report the happens-before cycle that
    makes a candidate execution inconsistent. *)

(** Incremental acyclic reachability, for engines that grow a relation
    one edge at a time and must notice the first edge that closes a
    cycle. The constraint-propagation oracle engine keeps one closure
    per search node: {!Closure.copy} at each branch, {!Closure.add} per
    propagated happens-before edge, and a [false] return prunes the
    whole subtree — sound because every edge it adds is present in every
    completion of the partial execution. *)
module Closure : sig
  type c
  (** A mutable, transitively closed reachability structure over
      [\[0, size)]. Unlike {!t}, operations mutate in place. *)

  val create : int -> c
  (** The empty closure over [n] elements.
      @raise Invalid_argument if [n < 0]. *)

  val size : c -> int
  val copy : c -> c
  (** An independent copy; mutating one never affects the other. *)

  val reaches : c -> int -> int -> bool
  (** [reaches c a b] holds when [b] is reachable from [a] through one or
      more added edges. *)

  val add : c -> int -> int -> bool
  (** [add c a b] inserts the edge [a → b] and re-closes transitively.
      Returns [false] — leaving [c] {e unchanged} — when the edge would
      create a cycle (including [a = b]); [true] otherwise. Adding an
      edge already implied by [c] is a harmless no-op that returns
      [true]. *)

  val of_relation : t -> c option
  (** [of_relation r] closes [r]; [None] when [r] is cyclic. *)

  val to_relation : c -> t
  (** The closure as a {!t} — equals [transitive_closure] of the added
      edges. *)
end

val equal : t -> t -> bool
(** Structural equality of relations over equal carriers. *)

val subset : t -> t -> bool
(** [subset r s] tests [r ⊆ s]. *)

val pp : names:(int -> string) -> Format.formatter -> t -> unit
(** [pp ~names fmt r] prints the pairs using [names] for elements. *)

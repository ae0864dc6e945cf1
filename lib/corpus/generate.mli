(** Template-driven enumeration of litmus program skeletons.

    A {e skeleton} is a litmus program with the concretisation erased:
    per-thread lists of symbolic slots — load/store/RMW on a numbered
    location, or a fence. The enumerator walks every skeleton inside a
    {!Shape} budget, prunes statically-uninteresting programs (threads
    with no memory access, programs with no write or no cross-thread
    conflict, fences at thread boundaries or adjacent to each other) and
    canonicalizes what survives: locations are renumbered by first use
    and threads are permuted to the lexicographic minimum, so two
    programs equal modulo renaming enumerate as one skeleton.

    Concretisation follows the paper's Sec. 3.1 convention (the same one
    {!Mcm_core.Mutator} uses): writes take unique increasing values per
    location in slot order, registers number sequentially per thread —
    so reads-from is inferable from observed values and the generated
    program is {!Mcm_litmus.Litmus.well_formed} by construction. *)

type sym = Ld of int | St of int | Um of int | Fn | Fw

type skeleton = sym list array
(** Canonical per-thread symbol lists. *)

val enumerate : Shape.t -> skeleton list * int
(** [enumerate shape] is the canonical, deduplicated skeletons within
    [shape] (deterministic order: first occurrence in the enumeration)
    and the number of raw pre-canonical programs that survived the
    static prunes — the denominator for dedup ratios. Raises
    [Invalid_argument] on a shape wider than 4 locations or 15 events
    plus threads, which no shape {!Shape.validate} accepts comes near. *)

val canonical : sym list array -> skeleton
(** [canonical threads] renumbers and permutes an arbitrary symbolic
    program to its canonical representative: the least under [compare]
    over thread orders, locations renumbered by first use. Idempotent.
    Raises [Invalid_argument] on a negative location. *)

val of_threads : Mcm_litmus.Instr.t list array -> sym list array
(** Erase a concrete program back to symbols (values and registers
    dropped). *)

val concretize : skeleton -> Mcm_litmus.Instr.t list array
(** The canonical concretisation (unique increasing values per location,
    sequential registers per thread, in thread-major slot order). *)

val nlocs : skeleton -> int
(** One more than the highest location mentioned. *)

val to_string : skeleton -> string
(** Compact rendering like ["Sx Sy | Ly Lx"] (threads separated by
    [" | "]); injective on canonical skeletons — used as the dedup and
    naming key. *)

val sample : seed:int -> bound:int -> 'a list -> 'a list
(** [sample ~seed ~bound xs] is [xs] when it has at most [bound]
    elements, else a uniform [bound]-element subset drawn with
    {!Mcm_util.Prng} from [seed], order-preserving and deterministic. *)

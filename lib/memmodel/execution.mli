(** Candidate executions: events plus the witness relations [rf] and [co].

    A candidate execution fixes, for every read, which write it reads from
    ([rf]; [None] means the zero-initialised initial state) and, per
    location, a coherence order over the writes ([co]; the initial state
    implicitly precedes every write). All other relations of Tab. 1 —
    [po], [po-loc], [fr], [com], [sw] — are derived. *)

type t = {
  events : Event.t array;
      (** all events; [events.(i).id = i] (checked by {!well_formed}) *)
  rf : int option array;
      (** [rf.(r)] for a read/RMW event [r] is [Some w] (it reads the value
          written by event [w]) or [None] (it reads the initial state);
          entries for non-reads are ignored and should be [None] *)
  co : (int * int list) list;
      (** per location, the coherence order over the write/RMW events to
          that location, earliest first; the initial state precedes all *)
}

val well_formed : t -> (unit, string) result
(** [well_formed x] checks the shape invariants: ids are positional; every
    read/RMW has an [rf] entry naming a same-location write (or [None]);
    every location with a write appears exactly once in [co], listing
    exactly the writes to that location. The error string describes the
    first violation. *)

val value_read : t -> int -> int
(** [value_read x r] is the value observed by read/RMW event [r]: the
    written value of its [rf] source, or [0] for the initial state.
    @raise Invalid_argument if [r] is not a read. *)

(** The derived relations of an execution, each over the event carrier. *)
type relations = {
  po : Relation.t;  (** program order: same thread, increasing index *)
  po_loc : Relation.t;  (** [po] restricted to same-location memory events *)
  rf : Relation.t;  (** reads-from: write → read *)
  co : Relation.t;  (** coherence: earlier write → later write, same loc *)
  fr : Relation.t;
      (** from-read: read → write when the read's [rf] source is
          [co]-before the write (initial-state reads are [fr]-before every
          write to the location) *)
  com : Relation.t;  (** communication: [rf ∪ co ∪ fr] *)
  sw : Relation.t;
      (** synchronizes-with over fences: release fence [f_r] → acquire
          fence [f_a] when they are in different threads and some write
          [po]-after [f_r] is read by some read [po]-before [f_a] *)
  po_sw_po : Relation.t;  (** the release/acquire ordering [po ; sw ; po] *)
}

val static_po : Event.t array -> Relation.t * Relation.t
(** [static_po events] is [(po, po_loc)] — the two derived relations
    that depend only on the event array, not on any [rf]/[co] choice.
    They are the fixed skeleton shared by every candidate execution of a
    test; {!relations} is built on top of this, and the oracle's
    propagation engine seeds its incremental closure with it. *)

val relations : t -> relations
(** [relations x] computes every derived relation, each in one fresh
    matrix. Cost is quadratic in the event count (≤ 16 for litmus tests)
    plus the po;sw;po edges. A caller that checks one candidate several
    ways — a pattern, two models — computes this once and hands it to
    {!Model.consistent_with}. *)

val event_name : t -> int -> string
(** [event_name x i] is a short printable name for event [i]
    (letters [a], [b], [c], ... in id order, as in the paper's figures). *)

val pp : Format.formatter -> t -> unit
(** Prints events, [rf] and [co] for debugging and reports. *)

(** Deterministic pseudo-random number generation.

    The whole reproduction is driven by a SplitMix64 generator so that every
    experiment is reproducible from a single seed. SplitMix64 is chosen over
    [Stdlib.Random] because its state is a single [int64], it supports cheap
    {e splitting} (deriving independent streams for sub-experiments from a
    parent stream), and its output is identical across OCaml versions. *)

type t
(** A mutable generator. Generators are cheap (one heap word) — derive one
    per (environment, device, test, iteration) rather than sharing. *)

val create : int -> t
(** [create seed] makes a generator from an integer seed. Equal seeds give
    equal streams. *)

val of_int64 : int64 -> t
(** [of_int64 s] makes a generator with the exact 64-bit state [s]. *)

val copy : t -> t
(** [copy g] is an independent generator with [g]'s current state. *)

val split : t -> t
(** [split g] draws from [g] and returns a new generator whose stream is
    statistically independent of [g]'s subsequent output. *)

val next_int64 : t -> int64
(** [next_int64 g] is the next raw 64-bit output. *)

val bits62 : t -> int
(** [bits62 g] is a uniform non-negative OCaml [int] (62 random bits). *)

val int : t -> int -> int
(** [int g n] is uniform in [\[0, n)]. @raise Invalid_argument if [n <= 0]. *)

val float : t -> float -> float
(** [float g x] is uniform in [\[0, x)]. *)

val bool : t -> bool
(** [bool g] is a fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli g p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val exponential : t -> float -> float
(** [exponential g mean] samples an exponential with the given mean;
    returns [0.] when [mean <= 0.]. *)

val shuffle_in_place : t -> 'a array -> unit
(** [shuffle_in_place g a] applies a uniform Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** [pick g a] is a uniformly chosen element. @raise Invalid_argument on an
    empty array. *)

val mix : int -> int -> int
(** [mix a b] deterministically combines two integers into a seed, suitable
    for deriving per-case seeds like [mix run_seed case_index]. *)

val state : t -> int64
(** The generator's exact current state — [of_int64 (state g)] clones [g].
    Exposed so differential tests can assert two engines consumed exactly
    the same draws, and so {!Raw} states can round-trip through [t]. *)

val set_state : t -> int64 -> unit
(** [set_state g s] overwrites [g]'s state with [s]. *)

(** Allocation-free draws over caller-owned state.

    A {!Raw.state} is 8 bytes of [Bytes.t] holding the same SplitMix64
    state as a {!t}; advancing it is a raw store, so the hot simulation
    path allocates nothing per draw. Every function consumes {e exactly}
    the same draws as its boxed counterpart on {!t} — [Raw.int],
    [Raw.shuffle_in_place], [Raw.float], [Raw.bernoulli] and
    [Raw.exponential] are bit-identical to {!int}, {!shuffle_in_place},
    {!float}, {!bernoulli} and {!exponential}, including their
    conditional-draw behaviour ([bernoulli] with [p <= 0.] or
    [p >= 1.] and [exponential] with [mean <= 0.] draw nothing). *)
module Raw : sig
  type state = Bytes.t

  val make : unit -> state
  (** Fresh all-zero state (seed it with {!load} or {!split_into}). *)

  val load : state -> t -> unit
  (** [load b g] copies [g]'s current state into [b]; [g] is unchanged. *)

  val store : state -> t -> unit
  (** [store b g] writes [b]'s state back into [g]. *)

  val next_int64 : state -> int64
  (** The raw SplitMix64 step — same stream as {!Prng.next_int64}. *)

  val split_into : child:state -> parent:state -> unit
  (** [split_into ~child ~parent] is {!Prng.split}: draws once from
      [parent] and seeds [child] with the result. *)

  val int : state -> int -> int
  (** {!Prng.int}, same rejection loop and draws.
      @raise Invalid_argument if the bound is not positive. *)

  val shuffle_in_place : state -> int array -> len:int -> unit
  (** [shuffle_in_place b a ~len] shuffles [a.(0) .. a.(len - 1)] and
      leaves the rest of [a] alone, drawing exactly what
      {!Prng.shuffle_in_place} draws on an array of length [len]. The
      prefix lets a caller reuse one array grown to its largest need. *)

  val float : state -> float -> float
  val bernoulli : state -> float -> bool
  val exponential : state -> float -> float
end

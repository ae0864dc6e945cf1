(** Litmus tests: small concurrent programs with a target behaviour.

    A test is a per-thread instruction list, a number of virtual memory
    locations (all zero-initialised), and a {e target behaviour} — a
    predicate over what the run made observable: the registers captured by
    loads and the final value of each location. For a conformance test the
    target is the behaviour {e disallowed} by the test's MCS; for a mutant
    it is the closely-related behaviour that is {e allowed} (Sec. 3).
    Running a test means executing it repeatedly and counting how often
    the target is observed. *)

(** What one run of a litmus test makes observable. *)
type outcome = {
  regs : int array array;
      (** [regs.(tid).(reg)] is the final value of register [reg] of
          thread [tid]; registers never written hold [0] *)
  final : int array;
      (** [final.(loc)] is the last value of each virtual location — the
          value of the coherence-last write, or [0] if never written *)
}

type t = {
  name : string;  (** unique test name, e.g. ["CoRR"] or ["MP-relacq-m2"] *)
  family : string;  (** grouping tag, e.g. a mutator name or ["classic"] *)
  model : Mcm_memmodel.Model.t;
      (** the MCS against which the target behaviour is judged *)
  threads : Instr.t list array;  (** per-thread programs; may include an
      observer thread whose loads witness coherence order *)
  nlocs : int;  (** number of virtual locations, numbered from [0] *)
  target : outcome -> bool;  (** the behaviour of interest *)
  target_desc : string;  (** human-readable rendering of [target] *)
}

val nthreads : t -> int

val nregs : t -> int array
(** [nregs t] is, per thread, one more than the highest register index
    written (or [0] if the thread writes no register). *)

val well_formed : t -> (unit, string) result
(** Checks the invariants the rest of the system relies on: at least one
    thread; every location index below [nlocs]; within a thread each
    register is written at most once (so outcomes are well defined); and
    all written values to one location are distinct and non-zero (the
    paper's "unique increasing value" concretisation, which makes
    reads-from inferable from observed values). *)

(** A litmus program lowered to memory-model events. *)
type compiled = {
  events : Mcm_memmodel.Event.t array;
      (** events in (thread, index) order; ids are positional *)
  reg_of_event : (int * int) option array;
      (** [reg_of_event.(id) = Some (tid, reg)] when event [id] is a
          value-capturing load or RMW bound to [reg] *)
}

val compile : ?layout:Mcm_memmodel.Scope.layout -> t -> compiled
(** [compile ?layout t] lowers every instruction to its event, stamping
    each with its scope and with the issuing thread's workgroup under
    [layout] (default {!Scope.Inter}: one workgroup per thread, the
    pre-scope behavior). *)

val outcome_of_execution : t -> Mcm_memmodel.Execution.t -> outcome
(** [outcome_of_execution t x] reads back registers and final memory from
    a candidate execution of [t] (which must have been built from
    [compile t]'s events); final memory is the value of the last write in
    each location's coherence order. *)

val outcome_mem : outcome -> outcome list -> bool
(** [outcome_mem o set] is [List.mem o set]: true when some element has
    [o]'s shape and values. Monomorphic over the int arrays and
    allocation-free, for target predicates that run once per executed
    instance. *)

val same_shape : outcome -> outcome -> bool
(** [same_shape o p] is true when [o] and [p] have as many threads,
    registers per thread and locations as each other, whatever their
    values. *)

val empty_outcome : t -> outcome
(** [empty_outcome t] is an all-zero outcome with the right shape. *)

val outcome_to_string : outcome -> string
(** Compact rendering like ["r0:1 r1:0 | x=1 y=0"] used in reports. *)

val loc_name : int -> string
(** Locations print as [x], [y], [z], then [l3], [l4], ... *)

val pp : Format.formatter -> t -> unit
(** Prints the whole test in the style of Fig. 1: one block per thread and
    the target condition at the bottom. *)

val to_string : t -> string

(** Compile-once, run-many instance kernels.

    {!Instance.run} re-flattens the litmus ADT into freshly allocated
    event records, per-thread lists and hashtables on every instance. A
    campaign executes the {e same} [(test, weak, bugs)] triple millions
    of times, so this module compiles the triple once into a flat
    structure-of-arrays template ({!t}) and runs each instance against a
    reusable per-domain {!workspace} holding all mutable scratch — the
    steady-state per-instance path allocates nothing on the OCaml heap.

    {b Bit-identity contract.} [run] consumes exactly the same PRNG
    draws in exactly the same order as {!Instance.run} and applies the
    same total-order tie-breaks in the coherence/visibility sorts, so
    its outcomes are bit-identical to the interpreter's. The interpreter
    remains the reference implementation; [test/test_kernel.ml] checks
    the equivalence by differential property testing. {!compile_cached}
    shares the {e immutable} structural image between kernels of one
    test, and {!adopt} hands one workspace from kernel to kernel of an
    image; neither sharing can influence a draw or an outcome (every
    scratch array is written before it is read within a run), so both
    inherit the same contract, checked by [test/test_kernel.ml] and,
    through the runner's schema plan, [test/test_schema.ml]. *)

val code_version : int
(** Version of the kernel's compiled form and execution semantics,
    recorded in store cell keys so results computed by different kernel
    generations are content-addressed distinctly. v1 = the original
    compiled kernel; v2 = schema images + cross-cell memoization; v3 =
    scope lane + scope-aware fence semantics. *)

type t
(** A compiled template: int-array event descriptions
    (kind/loc/value/reg/po/thread), per-thread slice offsets into the
    flat event array, and per-location write-index tables — all
    immutable and shareable across domains — plus the scalar
    [weak]/[bugs] parameters of this cell. Kernels produced by
    {!compile_cached} for the same test share one {e image} (the
    structural arrays) and differ only in the scalars.

    The image also records two static facts about the test: whether it
    has a fence, and whether some thread writes one location twice.
    Execution skips the release-fence pass without the first and the
    same-thread coherence pass without the second; neither pass could
    change a visibility time then, so skipping them is invisible.

    Finally the image numbers the test's outcomes: each write gets a
    digit (1 + its index among its location's writes; 0 is the initial
    value) and each register-writing read and each final value a
    mixed-radix weight, so every run also yields an {e outcome code}, a
    number below {!code_space} that fixes the whole outcome record —
    equal codes mean equal records. {!target_holds} answers the test's
    target from a per-code verdict table. *)

type workspace
(** Mutable per-instance scratch (issue/visibility times, coherence
    positions and orders, floors matrix, order buffer, the reused
    outcome record and its code, PRNG states) plus the image's verdict
    table. One per domain — not thread-safe. *)

val compile :
  ?layout:Mcm_memmodel.Scope.layout ->
  weak:Instance.weak_params ->
  bugs:Bug.effect ->
  test:Mcm_litmus.Litmus.t ->
  unit ->
  t
(** [compile ?layout ~weak ~bugs ~test ()] builds the template from
    scratch. [layout] (default {!Scope.Inter}) is a per-cell scalar like
    [weak]/[bugs]; it governs whether workgroup-scoped fences act (see
    {!Instance.run}). This is the reference path: one fresh image per
    call. Do this once per campaign, not per instance. *)

val compile_cached :
  ?layout:Mcm_memmodel.Scope.layout ->
  weak:Instance.weak_params ->
  bugs:Bug.effect ->
  test:Mcm_litmus.Litmus.t ->
  unit ->
  t
(** Like {!compile}, but memoizes the image (the expensive structural
    flattening and write tables, which depend only on [test]) in a
    bounded domain-local cache keyed by test name + physical identity,
    so cells differing only in environment, layout, mutation scalars or
    bug flags rebind the scalars onto one shared image. Bit-identical to
    {!compile} — the image is immutable. *)

val test : t -> Mcm_litmus.Litmus.t
(** The litmus test the kernel was compiled from. *)

val image_id : t -> int
(** Identity of the kernel's structural image. Kernels with equal
    [image_id] physically share their event arrays and write tables, so
    a workspace sized for one fits the other exactly (see {!adopt}). *)

val workspace : t -> workspace
(** A fresh workspace sized for [t]. Allocate once per domain and reuse
    for every instance that domain executes. *)

val adopt : workspace -> t -> unit
(** [adopt ws k] rebinds [ws] to [k] so it can be reused across cells
    that share an image (e.g. kernels from {!compile_cached} differing
    only in [weak]/[bugs]).

    @raise Invalid_argument if [ws]'s owner has a different
    {!image_id}. *)

val set_parent : workspace -> Mcm_util.Prng.t -> unit
(** [set_parent ws prng] captures [prng]'s current state as the
    iteration-level parent stream that {!run_next} splits children
    from. [prng] itself is not advanced. *)

val run_next : t -> workspace -> starts:float array -> off:int -> Mcm_litmus.Litmus.outcome
(** [run_next k ws ~starts ~off] splits the next child stream off the
    parent set by {!set_parent} (advancing the stored parent exactly as
    [Instance.run ~prng:(Prng.split parent)] would advance [parent])
    and executes one instance whose thread [tid] starts at
    [starts.(off + tid)] — one slice of a runner's flat per-iteration
    buffer. The returned outcome is [ws]'s reused record — copy it with
    {!snapshot} before the next run if it must survive. Allocation-free
    in steady state.

    @raise Invalid_argument if [starts] has no room for one start per
    thread from [off] on, or [ws] belongs to a different kernel. *)

val run :
  t -> workspace -> prng:Mcm_util.Prng.t -> starts:float array -> Mcm_litmus.Litmus.outcome
(** [run k ws ~prng ~starts] is a drop-in for
    [Instance.run ~prng ~weak ~bugs ~test ~starts]: it consumes draws
    directly from [prng] (whose state is synced back afterwards, so
    callers can assert both engines drained identical draws via
    {!Mcm_util.Prng.state}). The returned outcome is [ws]'s reused
    record.

    @raise Invalid_argument if [starts] doesn't match the test's thread
    count or [ws] belongs to a different kernel. *)

val snapshot : workspace -> Mcm_litmus.Litmus.outcome
(** A deep copy of the workspace's current outcome. *)

val target_holds : workspace -> bool
(** [target_holds ws] is [(test k).target o] for [ws]'s current kernel
    [k] and outcome [o] (the last {!run}/{!run_next}), answered from
    [ws]'s verdict table: a code's first appearance evaluates the target
    on [o] and records the verdict, later appearances read it. A
    workspace serves one image, and {!compile_cached} ties an image to
    one physical test, so a verdict never crosses tests. Targets must be
    pure functions of the outcome record, as every test's is. When
    {!code_space} is [None] it calls the target every time. Allocates
    nothing beyond what a first-time target call allocates. *)

val code_space : t -> int option
(** [Some k] when the image's outcome codes lie in [\[0, k)] with
    [k <= 2{^16}], so {!target_holds} uses a [k]-byte table; [None] when
    the space is larger, or when some thread writes one register twice
    (the surviving value then depends on execution order, not on the
    digits), and {!target_holds} calls the target closure. *)

val images_built : unit -> int
(** Process-wide count of structural images compiled from scratch (every
    {!compile} call, including {!compile_cached} misses). *)

val image_hits : unit -> int
(** Process-wide count of {!compile_cached} calls answered by a cached
    image. *)

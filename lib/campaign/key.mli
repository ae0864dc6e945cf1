(** Canonical, versioned content hashes of campaign cells.

    Every measurement in the evaluation — a {!Mcm_testenv.Runner}
    campaign of one test on one device in one environment — is a pure
    function of its configuration, so it can be memoized under a content
    hash of that configuration. A {!t} is an FNV-1a/64 hash over a
    canonical JSON serialization of the cell
    [(test, mutation, device profile, bug set, env params, seed,
    iterations, engine, code version)]:

    - the {e test} is serialized structurally (name, family — which for
      generated mutants is the mutator —, model, per-thread programs and
      the target description), so renaming or editing a test changes its
      keys;
    - the {e device} contributes its profile name and the folded
      per-instance bug effect, so a buggy device never shares cells with
      a correct one;
    - the {e environment} is the caller-provided canonical JSON (use
      {!Mcm_testenv.Params.to_json});
    - {!code_version} is baked into every hash, so bumping it after a
      semantics change in the simulator invalidates the whole store at
      once rather than serving stale results.

    Keys are deterministic across processes and OCaml versions (FNV-1a
    over bytes; no [Hashtbl.hash]). *)

type t
(** A 64-bit content hash. *)

val code_version : string
(** The cell-semantics version baked into every key. Bump on any change
    that alters what a campaign computes for the same configuration. *)

val fnv1a64 : string -> int64
(** The raw FNV-1a/64 hash of a byte string (offset basis
    [0xcbf29ce484222325], prime [0x100000001b3]): the fold every key
    uses, also behind the corpus's short admission hashes. *)

val of_string : string -> t
(** [of_string blob] hashes an already-canonical byte string. *)

val of_fields : (string * Mcm_util.Jsonw.t) list -> t
(** [of_fields kvs] hashes the compact JSON object [kvs] with
    {!code_version} prepended — the canonical serialization every
    higher-level key builder goes through. *)

val test_blob : Mcm_litmus.Litmus.t -> string
(** The canonical serialization of a litmus test used inside {!cell}
    keys. Memoized per test value in a bounded per-domain cache (tests
    are immutable and the shipped suites are generated once), so hot
    sweep loops pay the serialization only once per test and domain. *)

val cell_fields :
  kind:string ->
  engine:string ->
  test:Mcm_litmus.Litmus.t ->
  device:Mcm_gpu.Device.t ->
  env:Mcm_util.Jsonw.t ->
  iterations:int ->
  seed:int ->
  unit ->
  (string * Mcm_util.Jsonw.t) list
(** The canonical field list of one campaign cell — exactly what {!cell}
    hashes (after {!of_fields} prepends {!code_version}): the payload
    [kind], then the cell's {e prefix} (kernel code version, engine,
    test, device, env), then [iterations] and [seed]. Two cells with an
    equal prefix share every piece of the runner's derived setup
    (compiled kernel image, effective weak parameters, instance counts,
    slice horizon). Exposed so {!Mcm_testenv.Request} can expose the
    serialization itself: a request's canonical JSON {e is} this list,
    so pinning it pins the keys. *)

val cell :
  kind:string ->
  engine:string ->
  test:Mcm_litmus.Litmus.t ->
  device:Mcm_gpu.Device.t ->
  env:Mcm_util.Jsonw.t ->
  iterations:int ->
  seed:int ->
  unit ->
  t
(** [cell ~kind ~engine ~test ~device ~env ~iterations ~seed ()] is the
    key of one campaign cell. [kind] namespaces the cached payload shape
    (["run"], ["histogram"], ["outcomes"], …) so different result codecs
    never collide; [engine] is the runner engine's name. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
(** For [Hashtbl]-style indexing. *)

val to_hex : t -> string
(** 16 lowercase hex digits. *)

val of_hex : string -> (t, string) result
(** Inverse of {!to_hex}; rejects anything that is not exactly 16 hex
    digits. *)

val pp : Format.formatter -> t -> unit

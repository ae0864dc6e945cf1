(** Campaign cell requests and execution contexts.

    A {!t} names one campaign cell — the unit of measurement in the
    evaluation: run [test] on [device] under [env] for [iterations]
    iterations from [seed], with a given simulation [engine]. Its
    canonical serialization ({!to_fields}/{!to_json}) {e is} the
    {!Mcm_campaign.Key} payload: {!key} hashes exactly those fields, so a
    request pins its store identity and the pinned-vector tests in
    [test/test_pipeline.ml] guard both at once.

    A {!ctx} bundles the execution resources that used to be threaded as
    five separate optional arguments through harness, oracle, CLI, bench
    and examples: the domain count, the pool chunk size, the result
    {!Mcm_campaign.Store} and the sweep {!Mcm_campaign.Journal}. Build it
    once ({!context}) and pass it by value; {!serial} is the zero-resource
    default (one domain, no store).

    A context may also carry a borrowed {!Mcm_util.Pool.t}. Every
    consumer of the context ([Runner.exec], [Grid.map], [Grid.run]) then
    runs on that pool instead of spawning one per call, so a long-lived
    owner — the campaign daemon — pays for worker domains, and warms
    their per-domain caches, once per queue rather than once per cell.
    The owner shuts the pool down; consumers never do. Results are
    bit-identical with or without a pool. *)

(** {2 Engines} *)

type engine = Interpreter | Kernel

val engine_name : engine -> string
(** ["interpreter"] / ["kernel"] — the names baked into campaign keys. *)

val engines : (string * engine) list
(** The engine registry: every executable engine, by canonical name. *)

val engine_of_name : string -> engine option
(** Case-insensitive lookup in {!engines}. *)

(** {2 Requests} *)

type t = {
  test : Mcm_litmus.Litmus.t;
  device : Mcm_gpu.Device.t;
  env : Params.t;
  iterations : int;
  seed : int;
  engine : engine;
}

val make :
  ?engine:engine ->
  device:Mcm_gpu.Device.t ->
  env:Params.t ->
  test:Mcm_litmus.Litmus.t ->
  iterations:int ->
  seed:int ->
  unit ->
  t
(** [engine] defaults to {!Kernel} (matching the runner). *)

val to_fields : kind:string -> t -> (string * Mcm_util.Jsonw.t) list
(** The canonical field list of the cell, via
    {!Mcm_campaign.Key.cell_fields}. [kind] namespaces the cached payload
    shape (see {!Runner.kind}). *)

val to_json : kind:string -> t -> Mcm_util.Jsonw.t
(** The canonical serialization: [Obj (to_fields ~kind r)]. *)

val key : kind:string -> t -> Mcm_campaign.Key.t
(** The campaign key of the cell — the hash of {!to_fields} with the
    store code version prepended. Byte-identical to what
    {!Mcm_campaign.Key.cell} produces for the same fields.

    Memoized: a bounded per-domain table keeps the keys of recently
    keyed cells, so keying a cell again costs a table lookup. The test
    must be the same value (physical equality); device and env may be
    equal structurally. *)

(** {2 Plans} *)

(** How the runner compiles and shares per-cell setup across a
    campaign or grid. *)
type plan =
  | Per_cell
      (** The reference path: every cell compiles its own kernel and
          allocates (or single-slot-reuses) its own workspaces —
          exactly the pre-schema behaviour. *)
  | Schema
      (** Mutant-schemata path: cells sharing a structural image reuse
          one compiled image, one workspace arena and the memoized
          campaign prefix (effective weak params, instance counts,
          horizon). Bit-identical to {!Per_cell} by construction;
          differentially tested in [test/test_schema.ml]. *)

val plan_name : plan -> string
(** ["per-cell"] / ["schema"] — the CLI names. Plans do {e not} appear
    in campaign keys: both produce bit-identical results. *)

val plans : (string * plan) list
(** The plan registry, by canonical name. *)

val plan_of_name : string -> plan option
(** Case-insensitive lookup in {!plans}. *)

(** {2 Execution contexts} *)

type ctx = {
  domains : int;  (** worker domains; 1 = serial *)
  pool : Mcm_util.Pool.t option;
      (** a borrowed pool of [domains] domains to run on; [None] spawns
          a transient pool per parallel call *)
  chunk : int option;  (** pool dispatch chunk; [None] = {!chunk_for} default *)
  store : Mcm_campaign.Store.t option;  (** memoize cells here *)
  journal : Mcm_campaign.Journal.t option;  (** checkpoint sweeps here *)
  plan : plan;  (** compile/memoization strategy; {!Schema} by default *)
}

val serial : ctx
(** One domain, default chunking, no store, no journal, schema plan. *)

val context :
  ?pool:Mcm_util.Pool.t ->
  ?domains:int ->
  ?chunk:int ->
  ?store:Mcm_campaign.Store.t ->
  ?journal:Mcm_campaign.Journal.t ->
  ?plan:plan ->
  unit ->
  ctx
(** [domains] defaults to the [pool]'s domain count when a pool is
    given, else to 1; [plan] defaults to {!Schema}. The context borrows
    [pool]: the caller keeps ownership and shuts it down.

    Raises [Invalid_argument] if both [pool] and [domains] are given and
    [domains] differs from {!Mcm_util.Pool.domains}[ pool]. *)

val chunk_for : ctx -> n:int -> int
(** The pool dispatch chunk for an [n]-task grid: the context's [chunk]
    if set (clamped to ≥ 1), else {!Mcm_util.Pool.chunk_for} — the single
    place the [n / (4·domains)] default lives. *)

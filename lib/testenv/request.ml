module Jsonw = Mcm_util.Jsonw
module Pool = Mcm_util.Pool
module Litmus = Mcm_litmus.Litmus
module Device = Mcm_gpu.Device
module Key = Mcm_campaign.Key

type engine = Interpreter | Kernel

let engine_name = function Interpreter -> "interpreter" | Kernel -> "kernel"

(* The engine registry: every engine the runner can execute, by the name
   that appears in campaign keys and on the CLI. *)
let engines = [ ("interpreter", Interpreter); ("kernel", Kernel) ]

let engine_of_name name = List.assoc_opt (String.lowercase_ascii name) engines

type t = {
  test : Litmus.t;
  device : Device.t;
  env : Params.t;
  iterations : int;
  seed : int;
  engine : engine;
}

let make ?(engine = Kernel) ~device ~env ~test ~iterations ~seed () =
  { test; device; env; iterations; seed; engine }

(* The canonical serialization of a request IS the campaign key payload:
   both go through [Key.cell_fields], so pinning one pins the other. *)
let to_fields ~kind r =
  Key.cell_fields ~kind ~engine:(engine_name r.engine) ~test:r.test ~device:r.device
    ~env:(Params.to_json r.env) ~iterations:r.iterations ~seed:r.seed ()

let to_json ~kind r = Jsonw.Obj (to_fields ~kind r)

(* The key memo: the keys of recently keyed cells, per domain (no
   locks), bounded and reset wholesale when full, as [Runner]'s prefab
   cache is. Slots are keyed by test name, iterations, seed and a hash
   of every env field ([Params.t] has 19 immediate fields; the default
   [Hashtbl.hash] reads only the first 10), so a sweep over any of
   them scans a short bucket. A hit needs the physical test (its
   [target] is a closure), an equal kind, engine, iteration count and
   seed, and a device and env equal physically or else structurally.
   That is exact for the key bytes: [Params.t] holds no floats, and
   [Bug.effect_of] maps structurally equal bug lists to identical
   floats ([-0.0] folds to [+0.0]; NaN never compares equal, so it only
   misses). *)
type memo_entry = { m_kind : string; m_request : t; m_key : Key.t }

let memo_max = 512

type memo = { tbl : (string * int * int * int, memo_entry list) Hashtbl.t; mutable count : int }

let memo_key : memo Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { tbl = Hashtbl.create 64; count = 0 })

let key ~kind r =
  let memo = Domain.DLS.get memo_key in
  let slot = (r.test.Litmus.name, Hashtbl.hash_param 20 20 r.env, r.iterations, r.seed) in
  let matches m =
    let q = m.m_request in
    q.test == r.test && q.iterations = r.iterations && q.seed = r.seed && q.engine = r.engine
    && String.equal m.m_kind kind
    && (q.device == r.device || q.device = r.device)
    && (q.env == r.env || q.env = r.env)
  in
  let bucket = Option.value ~default:[] (Hashtbl.find_opt memo.tbl slot) in
  match List.find_opt matches bucket with
  | Some m -> m.m_key
  | None ->
      let bucket =
        if memo.count < memo_max then bucket
        else begin
          Hashtbl.reset memo.tbl;
          memo.count <- 0;
          []
        end
      in
      let k = Key.of_fields (to_fields ~kind r) in
      Hashtbl.replace memo.tbl slot ({ m_kind = kind; m_request = r; m_key = k } :: bucket);
      memo.count <- memo.count + 1;
      k

type plan = Per_cell | Schema

let plan_name = function Per_cell -> "per-cell" | Schema -> "schema"

(* The plan registry: every compile/memoization strategy the runner can
   execute, by CLI name. *)
let plans = [ ("per-cell", Per_cell); ("schema", Schema) ]

let plan_of_name name = List.assoc_opt (String.lowercase_ascii name) plans

type ctx = {
  domains : int;
  pool : Pool.t option;
  chunk : int option;
  store : Mcm_campaign.Store.t option;
  journal : Mcm_campaign.Journal.t option;
  plan : plan;
}

let serial =
  { domains = 1; pool = None; chunk = None; store = None; journal = None; plan = Schema }

let context ?pool ?domains ?chunk ?store ?journal ?(plan = Schema) () =
  let domains =
    match (pool, domains) with
    | None, d -> Option.value d ~default:1
    | Some p, None -> Pool.domains p
    | Some p, Some d ->
        if d <> Pool.domains p then
          invalid_arg
            (Printf.sprintf "Request.context: ~domains:%d conflicts with the pool's %d domains" d
               (Pool.domains p));
        d
  in
  { domains; pool; chunk; store; journal; plan }

let chunk_for c ~n =
  match c.chunk with
  | Some chunk -> max 1 chunk
  | None -> Pool.chunk_for ~domains:c.domains ~n

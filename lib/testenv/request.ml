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

let key ~kind r = Key.of_fields (to_fields ~kind r)

let prefix_key r =
  Key.of_fields
    (Key.prefix_fields ~engine:(engine_name r.engine) ~test:r.test ~device:r.device
       ~env:(Params.to_json r.env) ())

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

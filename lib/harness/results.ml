module Jsonw = Mcm_util.Jsonw
module Jsonp = Mcm_util.Jsonp
module Runner = Mcm_testenv.Runner
module Device = Mcm_gpu.Device
module Merge = Mcm_core.Merge
module Mutator = Mcm_core.Mutator
module Pearson = Mcm_stats.Pearson

type record = {
  category : string;
  env_index : int;
  device : string;
  test : string;
  mutator : string;
  kills : int;
  instances : int;
  iterations : int;
  sim_time_s : float;
  rate : float;
}

let key r = (r.category, r.test, r.device, r.env_index)

(* Per (category, test, device): did any environment kill the test, and
   its best rate over the environments. *)
type cell = { killed : bool; best : float }

let no_cell = { killed = false; best = 0. }

(* One category's devices and (test, mutator) pairs in first-appearance
   order, its environment count and its summed simulated time. A test's
   mutator is its first record's. *)
type view = { devices : string list; tests : (string * string) list; n_envs : int; time_s : float }

type t = {
  records : record list;
  by_key : (string * string * string * int, record) Hashtbl.t;
  cells : (string * string * string, cell) Hashtbl.t;
  views : (string, view) Hashtbl.t;
}

(* The first element of [xs] for each distinct [k x], in order. *)
let distinct_by k xs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun x ->
      let k = k x in
      (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
    xs

let of_records records =
  let records = distinct_by key records in
  let by_key = Hashtbl.create (List.length records) in
  let cells = Hashtbl.create 256 in
  List.iter
    (fun r ->
      Hashtbl.replace by_key (key r) r;
      let k = (r.category, r.test, r.device) in
      let c = Option.value ~default:no_cell (Hashtbl.find_opt cells k) in
      Hashtbl.replace cells k { killed = c.killed || r.kills > 0; best = Float.max c.best r.rate })
    records;
  let views = Hashtbl.create 4 in
  List.iter
    (fun { category; _ } ->
      let rs = List.filter (fun r -> r.category = category) records in
      Hashtbl.replace views category
        {
          devices = List.map (fun r -> r.device) (distinct_by (fun r -> r.device) rs);
          tests = List.map (fun r -> (r.test, r.mutator)) (distinct_by (fun r -> r.test) rs);
          n_envs = 1 + List.fold_left (fun acc r -> max acc r.env_index) (-1) rs;
          time_s = List.fold_left (fun acc r -> acc +. r.sim_time_s) 0. rs;
        })
    (distinct_by (fun r -> r.category) records);
  { records; by_key; cells; views }

let of_runs runs =
  of_records
    (List.map
       (fun (r : Tuning.run) ->
         {
           category = Tuning.category_name r.Tuning.category;
           env_index = r.Tuning.env_index;
           device = Device.name r.Tuning.device;
           test = r.Tuning.test_name;
           mutator = Mutator.kind_name r.Tuning.mutator;
           kills = r.Tuning.result.Runner.kills;
           instances = r.Tuning.result.Runner.instances;
           iterations = r.Tuning.result.Runner.iterations;
           sim_time_s = r.Tuning.result.Runner.sim_time_s;
           rate = r.Tuning.result.Runner.rate;
         })
       runs)

let records t = t.records

let record_to_json r =
  Jsonw.Obj
    [
      ("category", Jsonw.String r.category);
      ("envIndex", Jsonw.Int r.env_index);
      ("device", Jsonw.String r.device);
      ("test", Jsonw.String r.test);
      ("mutator", Jsonw.String r.mutator);
      ("kills", Jsonw.Int r.kills);
      ("instances", Jsonw.Int r.instances);
      ("iterations", Jsonw.Int r.iterations);
      ("simTimeS", Jsonw.Float r.sim_time_s);
      ("rate", Jsonw.Float r.rate);
    ]

let to_json t = Jsonw.Obj [ ("runs", Jsonw.List (List.map record_to_json t.records)) ]

let record_of_json v =
  let str key = Option.bind (Jsonp.member key v) Jsonp.to_string_opt in
  let num key = Option.bind (Jsonp.member key v) Jsonp.to_float in
  let int key = Option.bind (Jsonp.member key v) Jsonp.to_int in
  match (str "category", int "envIndex", str "device", str "test") with
  | Some category, Some env_index, Some device, Some test ->
      Ok
        {
          category;
          env_index;
          device;
          test;
          mutator = Option.value ~default:"-" (str "mutator");
          kills = Option.value ~default:0 (int "kills");
          instances = Option.value ~default:0 (int "instances");
          iterations = Option.value ~default:0 (int "iterations");
          sim_time_s = Option.value ~default:0. (num "simTimeS");
          rate = Option.value ~default:0. (num "rate");
        }
  | _ -> Error "record missing category/envIndex/device/test"

let of_json v =
  match Jsonp.member "runs" v with
  | None -> Error "missing \"runs\" array"
  | Some runs -> (
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
            match record_of_json item with Ok r -> go (r :: acc) rest | Error e -> Error e)
      in
      match go [] (Jsonp.to_list runs) with
      | Error e -> Error e
      | Ok records -> (
          let t = of_records records in
          (* Every record the table dropped repeats an earlier key. *)
          match List.find_opt (fun r -> Hashtbl.find t.by_key (key r) != r) records with
          | None -> Ok t
          | Some r ->
              Error
                (Printf.sprintf "repeated record for category %S, envIndex %d, device %S, test %S"
                   r.category r.env_index r.device r.test)))

let save path t =
  try
    let oc = open_out_bin path in
    Jsonw.to_channel oc (to_json t);
    close_out oc;
    Ok ()
  with Sys_error e -> Error e

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> Result.map_error (fun e -> path ^ ": " ^ e) (Result.bind (Jsonp.parse s) of_json)

let devices t = List.map (fun r -> r.device) (distinct_by (fun r -> r.device) t.records)
let tests t = List.map (fun r -> r.test) (distinct_by (fun r -> r.test) t.records)

let rate t ~category ~test ~device ~env_index =
  match Hashtbl.find_opt t.by_key (category, test, device, env_index) with
  | Some r -> r.rate
  | None -> 0.

let view t category =
  Option.value (Hashtbl.find_opt t.views category)
    ~default:{ devices = []; tests = []; n_envs = 0; time_s = 0. }

let mean f = function
  | [] -> 0.
  | xs -> List.fold_left (fun acc x -> acc +. f x) 0. xs /. float_of_int (List.length xs)

(* The mean of [f] over the category's tests (of [mutator] when given)
   on [device], or that mean averaged over the category's devices. *)
let average t ~category ?mutator ?device f =
  let v = view t category in
  let tests =
    List.filter_map
      (fun (test, m) ->
        if Option.fold ~none:true ~some:(String.equal m) mutator then Some test else None)
      v.tests
  in
  let cell test device =
    Option.value ~default:no_cell (Hashtbl.find_opt t.cells (category, test, device))
  in
  let on device = mean (fun test -> f (cell test device)) tests in
  match device with Some d -> on d | None -> mean on v.devices

let score t ~category ?mutator ?device () =
  average t ~category ?mutator ?device (fun c -> if c.killed then 1. else 0.)

let death_rate t ~category ?mutator ?device () =
  average t ~category ?mutator ?device (fun c -> c.best)

let mutation_score t ~category =
  let row label mutator =
    (label, score t ~category ?mutator (), death_rate t ~category ?mutator ())
  in
  let mutators = List.map snd (distinct_by snd (view t category).tests) in
  List.map (fun m -> row m (Some m)) mutators @ [ row "Combined" None ]

let sim_time t ~category = (view t category).time_s

(* Runs [alg], a form of Algorithm 1, over one test's rates in the
   category's environments and devices. *)
let merged t ~category ~test alg =
  let v = view t category in
  let devices = Array.of_list v.devices in
  alg
    ~rate:(fun ~env ~device -> rate t ~category ~test ~device:devices.(device) ~env_index:env)
    ~n_envs:v.n_envs ~n_devices:(Array.length devices)

let choose t ~category ~test ~target ~budget =
  merged t ~category ~test (Merge.choose ~target ~budget)

let merge_score t ~category ~target ~budget =
  let reproducible (test, _) =
    merged t ~category ~test (Merge.reproducible_on_all ~target ~budget)
  in
  mean (fun test -> if reproducible test then 1. else 0.) (view t category).tests

let correlation_matrix t ~category ~tests =
  (* Sample points are (env_index, device) pairs, in a fixed order. *)
  let points =
    List.sort_uniq compare
      (List.filter_map
         (fun r -> if r.category = category then Some (r.env_index, r.device) else None)
         t.records)
  in
  let series test =
    Array.of_list
      (List.map (fun (env_index, device) -> rate t ~category ~test ~device ~env_index) points)
  in
  let columns = Array.of_list (List.map series tests) in
  Array.map (fun a -> Array.map (Pearson.pcc a) columns) columns

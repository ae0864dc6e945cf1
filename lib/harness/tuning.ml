module Params = Mcm_testenv.Params
module Runner = Mcm_testenv.Runner
module Device = Mcm_gpu.Device
module Suite = Mcm_core.Suite
module Litmus = Mcm_litmus.Litmus
module Prng = Mcm_util.Prng
module Request = Mcm_testenv.Request

type category = Site_baseline | Site | Pte_baseline | Pte

let category_name = function
  | Site_baseline -> "SITE-baseline"
  | Site -> "SITE"
  | Pte_baseline -> "PTE-baseline"
  | Pte -> "PTE"

let all_categories = [ Site_baseline; Site; Pte_baseline; Pte ]

type config = {
  n_envs : int;
  site_iterations : int;
  pte_iterations : int;
  scale : float;
  seed : int;
}

(* Strict environment-variable parsing: a set-but-malformed value is a
   user error and must fail loudly, naming the variable — silently
   falling back to the default produced sweeps at the wrong scale with
   no indication anything was off. *)
let env_var name ~expected parse default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some v -> (
      match parse v with
      | Some x -> x
      | None ->
          failwith
            (Printf.sprintf "invalid env var %s=%S (expected %s)" name v expected))

let env_float name default = env_var name ~expected:"a float" float_of_string_opt default
let env_int name default = env_var name ~expected:"an int" int_of_string_opt default

let default_config () =
  let scale = env_float "MCM_SCALE" 0.02 in
  {
    n_envs = env_int "MCM_ENVS" (if scale >= 1. then 150 else 16);
    site_iterations = env_int "MCM_SITE_ITERS" (if scale >= 1. then 300 else 120);
    pte_iterations = env_int "MCM_PTE_ITERS" (if scale >= 1. then 100 else 10);
    scale;
    seed = env_int "MCM_SEED" 20230325;
  }

let category_mode = function
  | Site_baseline | Site -> Params.Single
  | Pte_baseline | Pte -> Params.Parallel

let envs_for config category =
  match category with
  | Site_baseline -> [ Params.scaled Params.site_baseline config.scale ]
  | Pte_baseline -> [ Params.scaled Params.pte_baseline config.scale ]
  | Site | Pte ->
      let g = Prng.create (Prng.mix config.seed (Hashtbl.hash (category_name category))) in
      List.init config.n_envs (fun _ ->
          Params.scaled (Params.random g (category_mode category)) config.scale)

let iterations_for config = function
  | Site_baseline | Site -> config.site_iterations
  | Pte_baseline | Pte -> config.pte_iterations

type run = {
  category : category;
  env_index : int;
  env : Params.t;
  device : Device.t;
  test_name : string;
  mutator : Mcm_core.Mutator.kind;
  result : Runner.result;
}

let sweep_key config ~devices ~tests =
  let module Jsonw = Mcm_util.Jsonw in
  Mcm_campaign.Key.of_fields
    [
      ("kind", Jsonw.String "tuning-sweep");
      ("nEnvs", Jsonw.Int config.n_envs);
      ("siteIterations", Jsonw.Int config.site_iterations);
      ("pteIterations", Jsonw.Int config.pte_iterations);
      ("scale", Jsonw.Float config.scale);
      ("seed", Jsonw.Int config.seed);
      ("devices", Jsonw.List (List.map (fun d -> Jsonw.String (Device.name d)) devices));
      ( "tests",
        Jsonw.List
          (List.map
             (fun (e : Suite.entry) -> Jsonw.String e.Suite.test.Litmus.name)
             tests) );
    ]

let sweep ?(ctx = Request.serial) ?devices ?tests config =
  let devices = match devices with Some d -> d | None -> Device.all_correct () in
  let tests = match tests with Some t -> t | None -> Suite.mutants () in
  (* Flatten the category × environment × device × test grid up front:
     every point carries an independent seed, so the points can run on
     any domain in any order and be collected back in grid order. *)
  let grid =
    Array.of_list
      (List.concat_map
         (fun category ->
           let envs = envs_for config category in
           let iterations = iterations_for config category in
           List.concat
             (List.mapi
                (fun env_index env ->
                  List.concat_map
                    (fun device ->
                      List.map (fun entry -> (category, env_index, env, device, entry, iterations))
                        tests)
                    devices)
                envs))
         all_categories)
  in
  let point_args i =
    let category, env_index, env, device, (entry : Suite.entry), iterations = grid.(i) in
    let test = entry.Suite.test in
    let seed =
      Prng.mix config.seed
        (Hashtbl.hash (category_name category, env_index, Device.name device, test.Litmus.name))
    in
    (category, env_index, env, device, entry, iterations, test, seed)
  in
  let request i =
    let _, _, env, device, _, iterations, test, seed = point_args i in
    Request.make ~device ~env ~test ~iterations ~seed ()
  in
  let n = Array.length grid in
  (* Schema families: points sharing (device, test) share a compiled
     image and workspace shape, so grouping miss dispatch by that pair
     keeps pool domains warm. A hash collision merely merges two
     families — grouping is a wall-clock hint, never semantic. *)
  let family i =
    let _, _, _, device, _, _, test, _ = point_args i in
    Hashtbl.hash (Device.name device, test.Litmus.name) land max_int
  in
  (* Only the Runner.result is the memoized payload; the surrounding
     [run] record is reassembled from the grid below. *)
  let results =
    Grid.run ctx
      (Grid.make ~sweep:(sweep_key config ~devices ~tests) ~family Runner.Rate ~n ~request)
  in
  Array.to_list
    (Array.mapi
       (fun i result ->
         let category, env_index, env, device, (entry : Suite.entry), _, test, _ =
           point_args i
         in
         {
           category;
           env_index;
           env;
           device;
           test_name = test.Litmus.name;
           mutator = entry.Suite.mutator;
           result;
         })
       results)

(* Tests for the schema execution plan: a campaign under
   [Request.Schema] (shared kernel images, the prefab cache, the
   per-domain workspace arena) must reproduce [Request.Per_cell] exactly
   for every collector and domain count, over random requests and over
   a family-grouped Table-4-shaped matrix, and the arena must hand one
   workspace from cell to cell of an image. *)

module Prng = Mcm_util.Prng
module Litmus = Mcm_litmus.Litmus
module Instr = Mcm_litmus.Instr
module Library = Mcm_litmus.Library
module Profile = Mcm_gpu.Profile
module Bug = Mcm_gpu.Bug
module Device = Mcm_gpu.Device
module Params = Mcm_testenv.Params
module Runner = Mcm_testenv.Runner
module Request = Mcm_testenv.Request
module Grid = Mcm_harness.Grid
module Table4 = Mcm_harness.Experiments.Table4

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Plan equivalence: Schema campaigns == Per_cell campaigns            *)

let plan_point_arb =
  (* (seed, iterations 0..3, domains 1|2|4) *)
  QCheck.(triple small_int (make (Gen.int_range 0 3)) (make (Gen.oneofl [ 1; 2; 4 ])))

let suite_test name = (Option.get (Mcm_core.Suite.find name)).Mcm_core.Suite.test

let random_request ~seed ~iterations =
  let g = Prng.create seed in
  let tests = [| "MP-CO-m"; "CoRR-m"; "MP-relacq-m3" |] in
  let test = suite_test tests.(Prng.int g (Array.length tests)) in
  let devices =
    [|
      Device.make Profile.nvidia;
      Device.make Profile.intel;
      Device.make ~bugs:[ Bug.Corr_reorder 0.5 ] Profile.amd;
    |]
  in
  let device = devices.(Prng.int g (Array.length devices)) in
  let env = Params.scaled (Params.random g Params.Parallel) 0.01 in
  Request.make ~device ~env ~test ~iterations ~seed ()

let prop_plan_equivalent =
  QCheck.Test.make ~count:40 ~name:"Schema plan == Per_cell plan (all collectors, domains)"
    plan_point_arb
    (fun (seed, iterations, domains) ->
      let r = random_request ~seed ~iterations in
      let agree : type a. a Runner.collect -> bool =
       fun c ->
        let per_cell = Runner.exec c r (Request.context ~plan:Request.Per_cell ~domains ()) in
        let schema = Runner.exec c r (Request.context ~plan:Request.Schema ~domains ()) in
        per_cell = schema
      in
      agree Runner.Rate && agree Runner.Histogram && agree Runner.Outcomes)

(* A Table-4-shaped matrix: the three case-study columns (conformance
   test plus its mutants, on the vendor's buggy device) x 2 Single-mode
   environments x 2 seeds, 1 iteration, through a family-grouped grid on
   one domain. A Single-mode cell runs one instance per iteration, and
   the seeds make whole campaign prefixes recur, so most cells are
   answered by the prefab cache and the arena. *)
let test_table4_matrix () =
  let seed = 20230325 in
  let n_envs = 2 and n_seeds = 2 in
  let cells =
    Array.of_list
      (List.concat_map
         (fun (profile, conf_name, _) ->
           let device =
             match Bug.paper_bug profile with
             | Some bug -> Device.make ~bugs:[ bug ] profile
             | None -> Device.make profile
           in
           let tests =
             suite_test conf_name
             :: List.map (fun (e : Mcm_core.Suite.entry) -> e.Mcm_core.Suite.test)
                  (Mcm_core.Suite.mutants_of conf_name)
           in
           let g = Prng.create (Prng.mix seed (Hashtbl.hash conf_name)) in
           let envs = List.init n_envs (fun _ -> Params.scaled (Params.random g Params.Single) 0.02) in
           List.concat_map
             (fun (test : Litmus.t) ->
               List.concat_map
                 (fun env ->
                   List.init n_seeds (fun s ->
                       let seed = Prng.mix seed (Hashtbl.hash (conf_name, test.Litmus.name, s)) in
                       Request.make ~device ~env ~test ~iterations:1 ~seed ()))
                 envs)
             tests)
         Table4.cases)
  in
  let family i = i / (n_envs * n_seeds) in
  let grid = Grid.make ~family Runner.Rate ~n:(Array.length cells) ~request:(Array.get cells) in
  let sweep plan = Grid.run (Request.context ~plan ~domains:1 ()) grid in
  let reference = sweep Request.Per_cell in
  check "Schema == Per_cell on every cell" true (sweep Request.Schema = reference)

let test_plan_names_roundtrip () =
  List.iter
    (fun (name, plan) ->
      Alcotest.(check string) "plan name" name (Request.plan_name plan);
      check "plan_of_name inverts" true (Request.plan_of_name name = Some plan))
    Request.plans;
  check "unknown plan rejected" true (Request.plan_of_name "banana" = None)

let test_engine_counters_monotone () =
  let s0 = Runner.engine_stats () in
  (* A fresh, uniquely named program: earlier properties have warmed the
     domain-local caches for every suite test, and a cached image would
     (correctly) not count as a compile. *)
  let probe =
    {
      Litmus.name = "counters-probe";
      family = "probe";
      model = Mcm_memmodel.Model.Relacq_sc_per_location;
      threads = [| [ (Instr.store ~loc:0 ~value:1 ()) ]; [ (Instr.load ~reg:0 ~loc:0 ()) ] |];
      nlocs = 1;
      target = (fun _ -> false);
      target_desc = "-";
    }
  in
  let device = Device.make Profile.nvidia in
  let env = Params.scaled Params.pte_baseline 0.02 in
  let r = Request.make ~device ~env ~test:probe ~iterations:2 ~seed:99 () in
  ignore (Runner.exec Runner.Rate r (Request.context ~plan:Request.Schema ()));
  ignore (Runner.exec Runner.Rate r (Request.context ~plan:Request.Schema ()));
  let d = Runner.engine_stats_sub (Runner.engine_stats ()) s0 in
  check "compiles counted" true (d.Runner.kernels_compiled >= 1);
  (* The second identical cell must be answered by the prefab cache. *)
  check "reuse counted" true (d.Runner.schema_reuses >= 1);
  ignore (Format.asprintf "%a" Runner.pp_engine_stats d)

(* The arena's cross-cell path. Cells of one test that differ in
   device, env or bugs share the test's image but not its prefab, so
   each takes the domain's workspace for that image over from the cell
   before ([Kernel.adopt]), verdict table included, while a second
   test's cells run in between on their own workspace. Fresh names keep
   images cached by earlier cases out of the way. *)
let test_arena_shares_workspaces () =
  let mp = { Library.mp with Litmus.name = "arena-mp" } in
  let sb = { Library.sb with Litmus.name = "arena-sb" } in
  let nvidia = Device.make Profile.nvidia in
  let env = Params.scaled Params.pte_baseline 0.01 in
  let cells =
    [
      (mp, nvidia, env);
      (sb, nvidia, env);
      (mp, Device.make Profile.intel, env);
      (sb, nvidia, env);
      (mp, Device.make ~bugs:[ Bug.Fence_weakened 0.5 ] Profile.nvidia, env);
      (mp, nvidia, Params.with_scope env Params.Intra_workgroup);
      (mp, nvidia, env);
    ]
  in
  let s0 = Runner.engine_stats () in
  List.iteri
    (fun i (test, device, env) ->
      let r = Request.make ~device ~env ~test ~iterations:2 ~seed:(500 + i) () in
      let same : type a. a Runner.collect -> unit =
       fun c ->
        check
          (Printf.sprintf "cell %d (%s) equals its per-cell run" i (Runner.kind c))
          true
          (Runner.exec c r (Request.context ~plan:Request.Schema ())
          = Runner.exec c r (Request.context ~plan:Request.Per_cell ()))
      in
      same Runner.Rate;
      same Runner.Histogram;
      same Runner.Outcomes)
    cells;
  let d = Runner.engine_stats_sub (Runner.engine_stats ()) s0 in
  check "a workspace was adopted across cells" true (d.Runner.workspace_reuses >= 1)

let () =
  Alcotest.run "schema"
    [
      ( "differential",
        [ Alcotest.test_case "arena shares workspaces" `Quick test_arena_shares_workspaces ] );
      ( "plans",
        List.map QCheck_alcotest.to_alcotest [ prop_plan_equivalent ]
        @ [
            Alcotest.test_case "Table-4 matrix: Schema == Per_cell" `Quick test_table4_matrix;
            Alcotest.test_case "plan names" `Quick test_plan_names_roundtrip;
            Alcotest.test_case "engine counters" `Quick test_engine_counters_monotone;
          ] );
    ]

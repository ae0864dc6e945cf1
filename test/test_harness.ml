(* Tests for mcm_harness: tuning sweeps and the experiment drivers. These
   run tiny sweeps and check the structural and directional claims the
   paper's evaluation rests on (PTE beats SITE, bugs correlate with
   mutants, table shapes). *)

module Tuning = Mcm_harness.Tuning
module Experiments = Mcm_harness.Experiments
module Suite = Mcm_core.Suite
module Mutator = Mcm_core.Mutator
module Device = Mcm_gpu.Device
module Profile = Mcm_gpu.Profile
module Litmus = Mcm_litmus.Litmus
module Runner = Mcm_testenv.Runner
module Request = Mcm_testenv.Request
module Table = Mcm_util.Table
module Results = Mcm_harness.Results

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains_sub msg sub =
  let n = String.length sub in
  let found = ref false in
  for i = 0 to String.length msg - n do
    if String.sub msg i n = sub then found := true
  done;
  !found

let tiny_config =
  { Tuning.n_envs = 3; site_iterations = 20; pte_iterations = 3; scale = 0.01; seed = 99 }

(* A pruned sweep shared by the tests below: two devices, six mutants. *)
let shared_runs =
  lazy
    (let devices = [ Device.make Profile.nvidia; Device.make Profile.intel ] in
     let tests =
       List.filter
         (fun (e : Suite.entry) ->
           List.mem e.Suite.test.Litmus.name
             [ "CoRR-m"; "CoWR-m"; "MP-CO-m"; "SB-CO-m"; "MP-relacq-m2"; "MP-relacq-m3" ])
         (Suite.mutants ())
     in
     Tuning.sweep ~devices ~tests tiny_config)

let shared_table = lazy (Results.of_runs (Lazy.force shared_runs))

let test_sweep_shape () =
  let runs = Lazy.force shared_runs in
  (* categories: 2 baselines (1 env) + 2 tuned (3 envs) = 8 envs; x 2
     devices x 6 tests. *)
  check_int "run count" (8 * 2 * 6) (List.length runs);
  List.iter
    (fun (r : Tuning.run) ->
      check "instances positive" true (r.Tuning.result.Runner.instances > 0);
      check "sim time positive" true (r.Tuning.result.Runner.sim_time_s > 0.))
    runs

let test_sweep_deterministic () =
  let devices = [ Device.make Profile.amd ] in
  let tests =
    List.filter
      (fun (e : Suite.entry) -> e.Suite.test.Litmus.name = "MP-CO-m")
      (Suite.mutants ())
  in
  let go () =
    List.map
      (fun (r : Tuning.run) -> (r.Tuning.test_name, r.Tuning.env_index, r.Tuning.result))
      (Tuning.sweep ~devices ~tests tiny_config)
  in
  check "deterministic" true (go () = go ())

let test_sweep_parallel_equals_serial () =
  (* The sweep's grid points fan out over the pool; list order and every
     result must match the serial sweep for any domain count. *)
  let devices = [ Device.make Profile.nvidia; Device.make Profile.intel ] in
  let tests =
    List.filter
      (fun (e : Suite.entry) -> List.mem e.Suite.test.Litmus.name [ "CoRR-m"; "MP-CO-m" ])
      (Suite.mutants ())
  in
  let fingerprint ctx =
    List.map
      (fun (r : Tuning.run) ->
        (r.Tuning.category, r.Tuning.env_index, r.Tuning.test_name, r.Tuning.result))
      (Tuning.sweep ?ctx ~devices ~tests tiny_config)
  in
  let serial = fingerprint None in
  List.iter
    (fun k ->
      if fingerprint (Some (Request.context ~domains:k ())) <> serial then
        Alcotest.failf "sweep diverged at %d domains" k)
    [ 1; 2; 4; 8 ]

let test_table4_parallel_equals_serial () =
  let go ctx = Experiments.Table4.compute ?ctx ~n_envs:6 ~iterations:2 ~scale:0.01 () in
  let strip rows =
    (* %h keeps the comparison bit-exact while letting nan equal nan. *)
    List.map
      (fun (r : Experiments.Table4.row) ->
        ( r.Experiments.Table4.vendor,
          r.Experiments.Table4.best_mutant,
          Printf.sprintf "%h" r.Experiments.Table4.pcc ))
      rows
  in
  let serial = strip (go None) in
  check "table4 identical at 4 domains" true
    (strip (go (Some (Request.context ~domains:4 ()))) = serial)

let test_envs_for () =
  check_int "baseline has one env" 1 (List.length (Tuning.envs_for tiny_config Tuning.Site_baseline));
  check_int "tuned has n_envs" 3 (List.length (Tuning.envs_for tiny_config Tuning.Pte));
  (* Environments are drawn deterministically. *)
  check "stable" true (Tuning.envs_for tiny_config Tuning.Pte = Tuning.envs_for tiny_config Tuning.Pte)

(* A sweep's table finds every run under the run's own coordinates. *)
let test_rate_lookup () =
  let table = Lazy.force shared_table in
  List.iter
    (fun (r : Tuning.run) ->
      check "lookup matches" true
        (Results.rate table ~category:(Tuning.category_name r.Tuning.category)
           ~test:r.Tuning.test_name ~device:(Device.name r.Tuning.device)
           ~env_index:r.Tuning.env_index
        = r.Tuning.result.Runner.rate))
    (Lazy.force shared_runs);
  check "missing is zero" true
    (Results.rate table ~category:"PTE" ~test:"nope" ~device:"NVIDIA" ~env_index:0 = 0.)

let test_category_names () =
  Alcotest.(check (list string))
    "names"
    [ "SITE-baseline"; "SITE"; "PTE-baseline"; "PTE" ]
    (List.map Tuning.category_name Tuning.all_categories)

(* -------------------------------------------------------------------- *)
(* Experiment drivers                                                     *)

let test_table2_renders () =
  let s = Table.render (Experiments.table2 ()) in
  check "mentions combined row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0));
  List.iter
    (fun needle ->
      let contains hay needle =
        let n = String.length needle and h = String.length hay in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      check ("table2 has " ^ needle) true (contains s needle))
    [ "reversing-po-loc"; "weakening-sw"; "Combined"; "20"; "32" ]

let test_table3_renders () =
  let s = Table.render (Experiments.table3 ()) in
  List.iter
    (fun needle ->
      let contains hay needle =
        let n = String.length needle and h = String.length hay in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      check ("table3 has " ^ needle) true (contains s needle))
    [ "GeForce RTX 2080"; "Radeon Pro 5500M"; "Iris Plus Graphics"; "M1"; "Discrete"; "Integrated" ]

let test_fig5_scores_within_bounds () =
  let table = Lazy.force shared_table in
  List.iter
    (fun category ->
      let category = Tuning.category_name category in
      let s = Results.score table ~category () in
      check "score in unit interval" true (s >= 0. && s <= 1.);
      let r = Results.death_rate table ~category () in
      check "rate non-negative" true (r >= 0.))
    Tuning.all_categories

let test_fig5_pte_beats_site_baseline () =
  let table = Lazy.force shared_table in
  check "PTE-baseline score >= SITE-baseline score" true
    (Results.score table ~category:"PTE-baseline" ()
    >= Results.score table ~category:"SITE-baseline" ());
  check "PTE-baseline rate > SITE-baseline rate" true
    (Results.death_rate table ~category:"PTE-baseline" ()
    > Results.death_rate table ~category:"SITE-baseline" ())

let test_fig5_tables_render () =
  let tables = Experiments.Fig5.all_tables (Lazy.force shared_table) in
  check_int "eight panels" 8 (List.length tables);
  List.iter (fun (title, t) -> check title true (String.length (Table.render t) > 0)) tables

let test_fig5_device_filter () =
  let table = Lazy.force shared_table in
  let nv = Results.score table ~category:"PTE-baseline" ~device:"NVIDIA" () in
  check "per-device score valid" true (nv >= 0. && nv <= 1.);
  (* The cross-device score averages the two devices the sweep holds. *)
  let intel = Results.score table ~category:"PTE-baseline" ~device:"Intel" () in
  check "All is the device mean" true
    (Results.score table ~category:"PTE-baseline" () = (nv +. intel) /. 2.)

let test_tuning_time_positive () =
  List.iter
    (fun (name, t) -> check (name ^ " time positive") true (t > 0.))
    (Experiments.Fig5.tuning_time (Lazy.force shared_table))

let pte_score ~target ~budget =
  Results.merge_score (Lazy.force shared_table) ~category:"PTE" ~target ~budget

let test_fig6_monotone_in_budget () =
  List.iter
    (fun target ->
      let prev = ref 0. in
      List.iter
        (fun budget ->
          let s = pte_score ~target ~budget in
          check "monotone in budget" true (s >= !prev -. 1e-9);
          prev := s)
        Experiments.Fig6.budgets)
    Experiments.Fig6.targets;
  (* Scores over the devices the sweep holds, not the four study
     devices: at 64 s most of the pruned sweep's mutants reproduce. *)
  check "PTE@95% at 64 s is positive" true (pte_score ~target:0.95 ~budget:64. > 0.)

let test_fig6_lower_target_easier () =
  List.iter
    (fun budget ->
      check "95% >= 99.999%" true
        (pte_score ~target:0.95 ~budget >= pte_score ~target:0.99999 ~budget -. 1e-9))
    Experiments.Fig6.budgets

let test_fig6_table_renders () =
  check "renders" true
    (String.length (Table.render (Experiments.Fig6.table (Lazy.force shared_table))) > 0)

let test_table4_correlations () =
  (* A small correlation study: high PCC for each of the paper's three
     bug cases, each statistically significant. *)
  let rows = Experiments.Table4.compute ~n_envs:24 ~iterations:6 ~scale:0.02 () in
  check_int "three cases" 3 (List.length rows);
  List.iter
    (fun (r : Experiments.Table4.row) ->
      (* The NVIDIA/MP-CO case is the weakest correlation in the paper
         too (.893); at test scale we accept anything strongly positive. *)
      check (r.Experiments.Table4.vendor ^ " strong correlation") true
        (r.Experiments.Table4.pcc > 0.75);
      check (r.Experiments.Table4.vendor ^ " significant") true
        (r.Experiments.Table4.p_value < 0.01))
    rows;
  check "renders" true (String.length (Table.render (Experiments.Table4.table rows)) > 0)

(* -------------------------------------------------------------------- *)
(* Results store (the artifact's JSON pipeline)                           *)

let test_results_roundtrip () =
  let table = Lazy.force shared_table in
  let path = Filename.temp_file "mcm" ".json" in
  (match Results.save path table with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" e);
  (match Results.load path with
  | Ok loaded -> check "round-trip" true (Results.records loaded = Results.records table)
  | Error e -> Alcotest.failf "load: %s" e);
  Sys.remove path

let test_results_of_json_rejects_garbage () =
  let module Jsonw = Mcm_util.Jsonw in
  check "not an object" true (Result.is_error (Results.of_json Jsonw.Null));
  check "runs not records" true
    (Result.is_error (Results.of_json (Jsonw.Obj [ ("runs", Jsonw.List [ Jsonw.Int 3 ]) ])));
  (* Two records under one key: refused, naming the key. *)
  let record rate =
    Jsonw.Obj
      [
        ("category", Jsonw.String "PTE");
        ("envIndex", Jsonw.Int 1);
        ("device", Jsonw.String "NVIDIA");
        ("test", Jsonw.String "CoRR-m");
        ("rate", Jsonw.Float rate);
      ]
  in
  match Results.of_json (Jsonw.Obj [ ("runs", Jsonw.List [ record 1.; record 2. ]) ]) with
  | Ok _ -> Alcotest.fail "a repeated key was accepted"
  | Error e ->
      List.iter
        (fun part -> check ("error names " ^ part) true (contains_sub e part))
        [ "repeated"; "\"PTE\""; "envIndex 1"; "\"NVIDIA\""; "\"CoRR-m\"" ]

let test_results_distinct () =
  let table = Lazy.force shared_table in
  Alcotest.(check (list string)) "devices" [ "NVIDIA"; "Intel" ] (Results.devices table);
  check_int "six tests" 6 (List.length (Results.tests table))

(* The specification of [Results.rate]: the first record under the key,
   found by a linear scan; [0.] when there is none. *)
let scan_rate records ~category ~test ~device ~env_index =
  match
    List.find_opt
      (fun (r : Results.record) ->
        r.category = category && r.test = test && r.device = device && r.env_index = env_index)
      records
  with
  | Some r -> r.rate
  | None -> 0.

let test_results_rate_lookup_matches_scan () =
  let records = Results.records (Lazy.force shared_table) in
  let table = Results.of_records records in
  List.iter
    (fun (r : Results.record) ->
      let { Results.category; test; device; env_index; _ } = r in
      check "rates agree" true
        (Results.rate table ~category ~test ~device ~env_index
        = scan_rate records ~category ~test ~device ~env_index))
    records

(* Random record lists over a small key space, so most lists repeat some
   keys and miss others. *)
let prop_rate_is_the_scan =
  let key_gen =
    QCheck.Gen.(
      quad (oneofl [ "SITE"; "PTE" ]) (oneofl [ "CoRR-m"; "MP-CO-m"; "SB-CO-m" ])
        (oneofl [ "NVIDIA"; "Intel" ]) (int_range (-1) 3))
  in
  let record_gen =
    QCheck.Gen.map2
      (fun (category, test, device, env_index) rate ->
        {
          Results.category;
          env_index;
          device;
          test;
          mutator = "-";
          kills = 0;
          instances = 0;
          iterations = 0;
          sim_time_s = 0.;
          rate;
        })
      key_gen (QCheck.Gen.float_range 0. 100.)
  in
  QCheck.Test.make ~count:300 ~name:"rate equals the first-match scan"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) record_gen))
    (fun records ->
      let table = Results.of_records records in
      List.for_all
        (fun (category, test, device, env_index) ->
          Results.rate table ~category ~test ~device ~env_index
          = scan_rate records ~category ~test ~device ~env_index)
        (QCheck.Gen.generate ~n:60 ~rand:(Random.State.make [| List.length records |]) key_gen))

let test_results_mutation_score () =
  let table = Lazy.force shared_table in
  let rows = Results.mutation_score table ~category:"PTE-baseline" in
  check "has combined row" true (List.exists (fun (l, _, _) -> l = "Combined") rows);
  List.iter
    (fun (label, score, rate) ->
      check (label ^ " score in unit") true (score >= 0. && score <= 1.);
      check (label ^ " rate non-negative") true (rate >= 0.))
    rows;
  (* The combined row averages over all mutants of the pruned sweep. *)
  match List.find_opt (fun (l, _, _) -> l = "Combined") rows with
  | Some (_, score, _) -> check "some mutants killed" true (score > 0.)
  | None -> Alcotest.fail "missing combined row"

let test_results_merge_score () =
  let table = Lazy.force shared_table in
  let score = Results.merge_score table ~category:"PTE" ~target:0.95 ~budget:64. in
  check "in unit interval" true (score >= 0. && score <= 1.);
  let strict = Results.merge_score table ~category:"PTE" ~target:0.99999 ~budget:(1. /. 1024.) in
  check "stricter never higher" true (strict <= score)

let test_results_correlation_matrix () =
  let table = Lazy.force shared_table in
  let tests = [ "CoRR-m"; "MP-CO-m" ] in
  let m = Results.correlation_matrix table ~category:"PTE" ~tests in
  check_int "square" 2 (Array.length m);
  check "diagonal is 1 (or nan)" true
    (Float.is_nan m.(0).(0) || abs_float (m.(0).(0) -. 1.) < 1e-9);
  check "symmetric" true
    ((Float.is_nan m.(0).(1) && Float.is_nan m.(1).(0)) || abs_float (m.(0).(1) -. m.(1).(0)) < 1e-9)

(* -------------------------------------------------------------------- *)
(* Environment-variable parsing: a malformed value must fail loudly,
   naming the variable — not silently fall back to the default. *)

let with_env name value f =
  let old = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv name (Option.value old ~default:""))
    f

let test_env_var_valid () =
  with_env "MCM_TEST_FLOAT" "0.25" (fun () ->
      check "parsed float" true (Tuning.env_float "MCM_TEST_FLOAT" 1.0 = 0.25));
  with_env "MCM_TEST_INT" "42" (fun () ->
      check_int "parsed int" 42 (Tuning.env_int "MCM_TEST_INT" 7))

let test_env_var_default () =
  (* Unset and empty both mean "use the default". *)
  check "unset float" true (Tuning.env_float "MCM_TEST_UNSET_F" 1.5 = 1.5);
  check_int "unset int" 7 (Tuning.env_int "MCM_TEST_UNSET_I" 7);
  with_env "MCM_TEST_EMPTY" "" (fun () ->
      check "empty float" true (Tuning.env_float "MCM_TEST_EMPTY" 2.5 = 2.5);
      check_int "empty int" 9 (Tuning.env_int "MCM_TEST_EMPTY" 9))

let test_env_var_malformed () =
  let expect_failure name kind value f =
    with_env name value (fun () ->
        match f () with
        | _ -> Alcotest.failf "%s=%S should have been rejected" name value
        | exception Failure msg ->
            check (Printf.sprintf "%s error names the variable" name) true
              (contains_sub msg name);
            check (Printf.sprintf "%s error names the expected type" name) true
              (contains_sub msg kind))
  in
  expect_failure "MCM_SCALE" "float" "bogus" (fun () -> Tuning.env_float "MCM_SCALE" 0.02);
  expect_failure "MCM_ENVS" "int" "3.5" (fun () -> Tuning.env_int "MCM_ENVS" 150);
  expect_failure "MCM_ENVS" "int" "12abc" (fun () -> Tuning.env_int "MCM_ENVS" 150);
  expect_failure "MCM_SITE_ITERS" "int" " " (fun () -> Tuning.env_int "MCM_SITE_ITERS" 1000)

let test_env_var_default_config_strict () =
  with_env "MCM_SCALE" "not-a-number" (fun () ->
      match Tuning.default_config () with
      | _ -> Alcotest.fail "default_config should reject a malformed MCM_SCALE"
      | exception Failure msg -> check "mentions MCM_SCALE" true (contains_sub msg "MCM_SCALE"))

let () =
  Alcotest.run "harness"
    [
      ( "env",
        [
          Alcotest.test_case "valid values parse" `Quick test_env_var_valid;
          Alcotest.test_case "unset/empty use default" `Quick test_env_var_default;
          Alcotest.test_case "malformed values rejected" `Quick test_env_var_malformed;
          Alcotest.test_case "default_config is strict" `Quick test_env_var_default_config_strict;
        ] );
      ( "tuning",
        [
          Alcotest.test_case "sweep shape" `Quick test_sweep_shape;
          Alcotest.test_case "sweep deterministic" `Quick test_sweep_deterministic;
          Alcotest.test_case "sweep parallel == serial" `Quick test_sweep_parallel_equals_serial;
          Alcotest.test_case "table4 parallel == serial" `Slow test_table4_parallel_equals_serial;
          Alcotest.test_case "envs_for" `Quick test_envs_for;
          Alcotest.test_case "rate lookup" `Quick test_rate_lookup;
          Alcotest.test_case "category names" `Quick test_category_names;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table2 renders" `Quick test_table2_renders;
          Alcotest.test_case "table3 renders" `Quick test_table3_renders;
          Alcotest.test_case "fig5 bounds" `Quick test_fig5_scores_within_bounds;
          Alcotest.test_case "fig5 PTE beats SITE baseline" `Quick test_fig5_pte_beats_site_baseline;
          Alcotest.test_case "fig5 tables render" `Quick test_fig5_tables_render;
          Alcotest.test_case "fig5 device filter" `Quick test_fig5_device_filter;
          Alcotest.test_case "tuning time" `Quick test_tuning_time_positive;
          Alcotest.test_case "fig6 monotone in budget" `Quick test_fig6_monotone_in_budget;
          Alcotest.test_case "fig6 target ordering" `Quick test_fig6_lower_target_easier;
          Alcotest.test_case "fig6 table renders" `Quick test_fig6_table_renders;
          Alcotest.test_case "table4 correlations" `Slow test_table4_correlations;
        ] );
      ( "results",
        [
          Alcotest.test_case "round-trip" `Quick test_results_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_results_of_json_rejects_garbage;
          Alcotest.test_case "distinct" `Quick test_results_distinct;
          Alcotest.test_case "rate lookup" `Quick test_results_rate_lookup_matches_scan;
          QCheck_alcotest.to_alcotest prop_rate_is_the_scan;
          Alcotest.test_case "mutation score" `Quick test_results_mutation_score;
          Alcotest.test_case "merge score" `Quick test_results_merge_score;
          Alcotest.test_case "correlation matrix" `Quick test_results_correlation_matrix;
        ] );
    ]

(* CTS curation: the Sec. 4.2 story. A conformance test suite needs one
   testing environment per test, fixed at contribution time, effective on
   devices unknown in advance, within a time budget the CI system can
   afford. This example:

     1. tunes parallel environments over the four study devices,
     2. merges them per mutant with Algorithm 1 for a reproducibility
        target,
     3. sweeps the time budget to find the cheapest budget that keeps the
        mutation score at its plateau, and
     4. prints the resulting CTS proposal, including the total suite
        reproducibility (the .95^20 discussion).

   Run with: dune exec examples/cts_curation.exe *)

module Suite = Mcm_core.Suite
module Merge = Mcm_core.Merge
module Confidence = Mcm_core.Confidence
module Tuning = Mcm_harness.Tuning
module Results = Mcm_harness.Results
module Experiments = Mcm_harness.Experiments
module Table = Mcm_util.Table

let target = 0.99999

let () =
  let config = Tuning.default_config () in
  let jobs = Mcm_util.Pool.default_domains () in
  Printf.printf "tuning %d parallel environments per category (scale %.3f, %d jobs)...\n%!"
    config.Tuning.n_envs config.Tuning.scale jobs;
  let table =
    Results.of_runs (Tuning.sweep ~ctx:(Mcm_testenv.Request.context ~domains:jobs ()) config)
  in
  let category = Tuning.category_name Tuning.Pte in

  (* Budget sweep: where does the PTE mutation score plateau? *)
  print_endline "\nmutation score vs per-test budget (PTE, merged with Alg. 1):";
  let plateau = Results.merge_score table ~category ~target ~budget:64. in
  let cheapest =
    List.fold_left
      (fun acc budget ->
        let score = Results.merge_score table ~category ~target ~budget in
        Printf.printf "  %8.4f s -> %s\n" budget (Table.pct_cell score);
        match acc with
        | Some _ -> acc
        | None -> if score >= plateau -. 1e-9 then Some budget else None)
      None Experiments.Fig6.budgets
  in
  let budget = match cheapest with Some b -> b | None -> 64. in
  Printf.printf "\nchosen per-test budget: %g s (plateau score %s)\n" budget
    (Table.pct_cell plateau);

  (* The per-test environment proposal. *)
  let n_devices = List.length (Results.devices table) in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "Mutant"; "Env"; "Devices at ceiling"; "Min rate (/s)" ]
  in
  let reproducible = ref 0 in
  List.iter
    (fun name ->
      match Results.choose table ~category ~test:name ~target ~budget with
      | None -> Table.add_row t [ name; "-"; "0"; "0" ]
      | Some c ->
          if c.Merge.devices_at_ceiling = n_devices then incr reproducible;
          Table.add_row t
            [
              name;
              string_of_int c.Merge.env;
              string_of_int c.Merge.devices_at_ceiling;
              Table.rate_cell c.Merge.min_positive_rate;
            ])
    (Results.tests table);
  print_newline ();
  Table.print t;

  let n_conf = List.length (Suite.conformance_tests ()) in
  Printf.printf "\n%d/%d mutants reproducible on all four devices\n" !reproducible
    (List.length (Results.tests table));
  Printf.printf "CTS proposal: %d conformance tests x %g s = %g s of testing per run\n" n_conf
    budget
    (budget *. float_of_int n_conf);
  Printf.printf "per-test reproducibility %.5g%% -> whole-suite reproducibility %.4f%%\n"
    (100. *. target)
    (100. *. Confidence.total_reproducibility ~per_test:target ~tests:n_conf);
  Printf.printf "(for contrast, a 95%% per-test target gives only %.1f%% for the suite)\n"
    (100. *. Confidence.total_reproducibility ~per_test:0.95 ~tests:n_conf)

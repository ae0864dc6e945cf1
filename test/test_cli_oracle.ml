(* End-to-end tests of the `mcmutants oracle` engine selection, driven
   through the real binary (declared as a dune dep, so it is always the
   freshly built one). Three contracts:

   - `--engine {enumerate,propagate}` is accepted and round-trips into
     the `--json` report, so downstream tooling can tell which engine
     produced a given artifact;
   - an unknown engine is rejected up front with a message naming the
     valid choices, not a crash mid-run;
   - `--inject-bug` makes the run exit non-zero under BOTH engines — the
     self-test of the checker is engine-independent.

   Plus the analysis commands (`show`, `enumerate`, `parse`, `export`),
   whose stdout must equal the goldens in cli_golden/ byte for byte.
   CoRR-rmw and 2+2W-CO print a different forbidden cycle from the one
   certification stores, so these goldens also pin which candidate the
   explainer reports. *)

module Jsonp = Mcm_util.Jsonp

(* Under `dune runtest` the cwd is the test directory inside _build and
   the dep sits at ../bin/; under a bare `dune exec` from the project
   root it sits under _build/default/bin/. *)
let exe =
  let candidates =
    [
      Filename.concat ".." (Filename.concat "bin" "mcmutants.exe");
      Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "mcmutants.exe"));
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates
let check = Alcotest.check Alcotest.bool
let engines = [ "enumerate"; "propagate" ]

(* Run [exe args], capturing combined stdout+stderr and the exit code. *)
let run_cli args =
  let out = Filename.temp_file "mcm_cli" ".out" in
  let code =
    Sys.command (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe) args (Filename.quote out))
  in
  let ic = open_in_bin out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, text)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let test_engine_round_trips_in_json () =
  List.iter
    (fun engine ->
      let json = Filename.temp_file "mcm_cli" ".json" in
      let code, output =
        run_cli
          (Printf.sprintf "oracle --engine %s --no-certify --smoke --test CoRR --json %s" engine
             (Filename.quote json))
      in
      if code <> 0 then Alcotest.failf "%s run failed (exit %d):\n%s" engine code output;
      let report =
        match Jsonp.parse_file json with
        | Ok j -> j
        | Error e -> Alcotest.failf "%s: bad JSON report: %s" engine e
      in
      Sys.remove json;
      check (engine ^ " recorded in report") true
        (Option.bind (Jsonp.member "engine" report) Jsonp.to_string_opt = Some engine);
      check (engine ^ " soundness present") true (Jsonp.member "soundness" report <> None))
    engines

let test_unknown_engine_rejected () =
  let code, output = run_cli "oracle --engine bogus --no-certify --no-soundness" in
  check "unknown engine exits non-zero" true (code <> 0);
  (* cmdliner's enum error names every valid choice. *)
  check "error names the bad value" true (contains ~needle:"bogus" output);
  check "error lists enumerate" true (contains ~needle:"enumerate" output);
  check "error lists propagate" true (contains ~needle:"propagate" output)

(* Golden files sit in cli_golden/ next to the test under `dune
   runtest`, and under test/ from the project root. *)
let golden name =
  let path =
    List.find_opt Sys.file_exists
      [
        Filename.concat "cli_golden" name;
        Filename.concat "test" (Filename.concat "cli_golden" name);
      ]
  in
  match path with
  | None -> Alcotest.failf "golden %s not found" name
  | Some p ->
      let ic = open_in_bin p in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (p, text)

(* Run [exe args] and return its stdout alone. *)
let stdout_of args =
  let out = Filename.temp_file "mcm_cli" ".out" in
  let code =
    Sys.command (Printf.sprintf "%s %s > %s" (Filename.quote exe) args (Filename.quote out))
  in
  let ic = open_in_bin out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  if code <> 0 then Alcotest.failf "mcmutants %s exited %d" args code;
  text

let test_analysis_goldens () =
  List.iter
    (fun (args, file) ->
      let _, expected = golden file in
      Alcotest.(check string) ("mcmutants " ^ args) expected (stdout_of args))
    [
      ("show CoRR", "show-CoRR.txt");
      ("show CoRR-rmw", "show-CoRR-rmw.txt");
      ("show MP-relacq", "show-MP-relacq.txt");
      ("show 2+2W-CO", "show-2+2W-CO.txt");
      ("enumerate MP-relacq", "enumerate-MP-relacq.txt");
      ("export CoRR-rmw", "CoRR-rmw.litmus");
    ];
  let path, _ = golden "CoRR-rmw.litmus" in
  let _, expected = golden "parse-CoRR-rmw.txt" in
  Alcotest.(check string) "mcmutants parse (exported CoRR-rmw)" expected
    (stdout_of ("parse " ^ Filename.quote path))

let test_injected_bug_fails_both_engines () =
  List.iter
    (fun engine ->
      let code, output =
        run_cli
          (Printf.sprintf "oracle --engine %s --no-certify --smoke --test CoRR --inject-bug" engine)
      in
      check (engine ^ " exits non-zero on injected bug") true (code = 1);
      check (engine ^ " reports the failure") true (contains ~needle:"failure" output))
    engines

let () =
  Alcotest.run "cli-oracle"
    [
      ( "engine",
        [
          Alcotest.test_case "round-trips in --json" `Quick test_engine_round_trips_in_json;
          Alcotest.test_case "unknown engine rejected" `Quick test_unknown_engine_rejected;
          Alcotest.test_case "injected bug fails both engines" `Quick
            test_injected_bug_fails_both_engines;
        ] );
      ( "analysis",
        [ Alcotest.test_case "show, enumerate, parse goldens" `Quick test_analysis_goldens ] );
    ]

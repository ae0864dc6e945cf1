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
   explainer reports. And `analysis` over a `tune --save` file prints
   the numbers `fig5` and `fig6` print for the same sweep. *)

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
  (* The error names every valid choice. *)
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

(* Run [exe args] and return its stdout alone; [env] prefixes
   variable assignments to the command. *)
let stdout_of ?(env = "") args =
  let out = Filename.temp_file "mcm_cli" ".out" in
  let code =
    Sys.command (Printf.sprintf "%s%s %s > %s" env (Filename.quote exe) args (Filename.quote out))
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

let words line = List.filter (( <> ) "") (String.split_on_char ' ' line)

(* The cells after the label of the first row labelled [label], after
   the line [title] when given. *)
let row ?title text ~label =
  let rec after title = function
    | [] -> Alcotest.failf "no line %S in:\n%s" title text
    | l :: rest -> if l = title then rest else after title rest
  in
  let rec find = function
    | [] -> Alcotest.failf "no row %S in:\n%s" label text
    | l :: rest -> ( match words l with w :: cells when w = label -> cells | _ -> find rest)
  in
  let lines = String.split_on_char '\n' text in
  find (match title with Some t -> after t lines | None -> lines)

(* The cell of [row] under [column] of [header]. *)
let column header column row =
  let rec go i = function
    | [] -> Alcotest.failf "no column %S" column
    | c :: rest -> if c = column then List.nth row i else go (i + 1) rest
  in
  go 0 header

let test_analysis_reads_the_figures_table () =
  let env = "MCM_ENVS=2 MCM_SITE_ITERS=4 MCM_PTE_ITERS=2 " in
  let stats = Filename.temp_file "mcm_cli" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove stats)
    (fun () ->
      ignore (stdout_of ~env ("tune --jobs 2 --save " ^ Filename.quote stats));
      let analysis args =
        stdout_of ~env (Printf.sprintf "analysis --stats %s %s" (Filename.quote stats) args)
      in
      let fig6 = stdout_of ~env "fig6 --jobs 2" in
      let title =
        "Figure 6: mutation score vs per-test time budget (merged environments, Alg. 1)"
      in
      (* The header row reads "Budget (s) SITE@95% ...". *)
      let header = List.tl (row fig6 ~title ~label:"Budget") in
      let pte95 = column header "PTE@95%" (row fig6 ~title ~label:"64") in
      let merged = analysis "--action merge --category PTE --rep 95 --budget 64" in
      Alcotest.(check string) "fig6 PTE@95% at 64 s = analysis merge" pte95
        (List.hd (words merged));
      let fig5 = stdout_of ~env "fig5 --jobs 2" in
      List.iter
        (fun category ->
          let all title =
            column (row fig5 ~title ~label:"Device") category (row fig5 ~title ~label:"All")
          in
          Alcotest.(check (list string))
            (category ^ ": fig5 (g)/(h) All = analysis Combined")
            [
              all "(g) all mutators: mutation score";
              all "(h) all mutators: mutant death rate (/s)";
            ]
            (row (analysis ("--category " ^ category)) ~label:"Combined"))
        [ "SITE-baseline"; "SITE"; "PTE-baseline"; "PTE" ])

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
        [
          Alcotest.test_case "show, enumerate, parse goldens" `Quick test_analysis_goldens;
          Alcotest.test_case "fig5, fig6 and analysis read one table" `Quick
            test_analysis_reads_the_figures_table;
        ] );
    ]

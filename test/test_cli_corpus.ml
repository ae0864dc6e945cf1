(* End-to-end tests of `mcmutants corpus`, driven through the real
   binary (a dune dep, so always the freshly built one). Contracts:

   - generate → certify → list → run is a working pipeline: a generated
     corpus re-proves clean under both oracle engines and runs through
     the campaign store, with a warm rerun served fully from cache;
   - seeded generation is byte-reproducible (same flags ⇒ same file),
     including across --jobs values;
   - a tampered corpus file is refused at load (content key mismatch);
   - malformed flag values and unwritable output paths fail with exit
     1, naming the flag, and every command's arguments evaluate;
   - `version --json` carries the corpus generator version. *)

module Jsonp = Mcm_util.Jsonp

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

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Substring replace without Str (not a test dependency). *)
let replace_once ~needle ~by s =
  let n = String.length needle and h = String.length s in
  let rec at i = if i + n > h then None else if String.sub s i n = needle then Some i else at (i + 1) in
  match at 0 with
  | None -> None
  | Some i -> Some (String.sub s 0 i ^ by ^ String.sub s (i + n) (h - i - n))

(* A small, fast configuration shared by the pipeline tests. *)
let gen_flags ?(jobs = 2) out =
  Printf.sprintf "corpus generate --shape 2x3x2 --ops uoi --seed 7 --jobs %d -o %s" jobs
    (Filename.quote out)

let with_temp_dir f =
  let dir = Filename.temp_file "mcm_corpus" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let test_generate_certify_list () =
  with_temp_dir (fun dir ->
      let corpus = Filename.concat dir "c.json" in
      let code, output = run_cli (gen_flags corpus ^ " --cross-check") in
      if code <> 0 then Alcotest.failf "generate failed (exit %d):\n%s" code output;
      check "generate reports admissions" true (contains ~needle:"admitted:" output);
      check "generate reports cross-check" true
        (contains ~needle:"both oracle engines agree" output);
      check "generate prints the corpus key" true (contains ~needle:"corpus key:" output);
      let code, output =
        run_cli (Printf.sprintf "corpus certify --corpus %s --jobs 2" (Filename.quote corpus))
      in
      if code <> 0 then Alcotest.failf "certify failed (exit %d):\n%s" code output;
      check "certify reports zero divergences" true (contains ~needle:"0 divergence(s)" output);
      let code, output =
        run_cli (Printf.sprintf "corpus list --corpus %s" (Filename.quote corpus))
      in
      if code <> 0 then Alcotest.failf "list failed (exit %d):\n%s" code output;
      check "list shows polarity column" true (contains ~needle:"conformance" output);
      check "list shows operator origin" true (contains ~needle:"uoi of" output))

let test_run_store_warm_hits () =
  with_temp_dir (fun dir ->
      let corpus = Filename.concat dir "c.json" in
      let store = Filename.concat dir "store" in
      let code, output = run_cli (gen_flags corpus) in
      if code <> 0 then Alcotest.failf "generate failed (exit %d):\n%s" code output;
      let run_args =
        Printf.sprintf "corpus run --corpus %s --iterations 4 --store %s" (Filename.quote corpus)
          (Filename.quote store)
      in
      let code, cold = run_cli run_args in
      if code <> 0 then Alcotest.failf "cold run failed (exit %d):\n%s" code cold;
      check "cold run computes cells" true (not (contains ~needle:", 0 added this run" cold));
      let code, warm = run_cli run_args in
      if code <> 0 then Alcotest.failf "warm run failed (exit %d):\n%s" code warm;
      (* Every cell must be served from the store on the warm rerun. *)
      check "warm run adds no records" true (contains ~needle:", 0 added this run" warm);
      check "warm run compiles no kernels" true (contains ~needle:"0 kernel(s) compiled" warm))

let test_generate_reproducible_bytes () =
  with_temp_dir (fun dir ->
      let a = Filename.concat dir "a.json" in
      let b = Filename.concat dir "b.json" in
      let code, output = run_cli (gen_flags a) in
      if code <> 0 then Alcotest.failf "first generate failed (exit %d):\n%s" code output;
      let code, output = run_cli (gen_flags ~jobs:1 b) in
      if code <> 0 then Alcotest.failf "second generate failed (exit %d):\n%s" code output;
      check "same flags produce identical bytes (across --jobs)" true (read_file a = read_file b))

let test_tampered_corpus_refused () =
  with_temp_dir (fun dir ->
      let corpus = Filename.concat dir "c.json" in
      let code, output = run_cli (gen_flags corpus) in
      if code <> 0 then Alcotest.failf "generate failed (exit %d):\n%s" code output;
      let s = read_file corpus in
      let tampered =
        match replace_once ~needle:"\"seed\":7" ~by:"\"seed\":8" s with
        | Some t -> t
        | None -> Alcotest.fail "corpus file does not record its seed"
      in
      write_file corpus tampered;
      let code, output =
        run_cli (Printf.sprintf "corpus list --corpus %s" (Filename.quote corpus))
      in
      check "tampered corpus exits non-zero" true (code <> 0);
      check "error names the key mismatch" true (contains ~needle:"key mismatch" output))

(* Output paths under /dev/null, a character device, cannot be created
   by any user. *)
let test_malformed_flags_name_the_flag () =
  with_temp_dir (fun dir ->
      let store = Filename.quote (Filename.concat dir "store") in
      let stats = Filename.concat dir "stats.json" in
      write_file stats
        {|{"runs":[{"category":"PTE","envIndex":0,"device":"NVIDIA","test":"CoRR-m","rate":1.0}]}|};
      let stats = Filename.quote stats in
      let cases =
        [
          ("corpus generate --shape garbage", "--shape", "expected THREADSxEVENTSxLOCS");
          ("corpus generate --shape 5x2x9", "--shape", "threads must be in 2..3");
          ("corpus generate --shape 2x9x2", "--shape", "events must be in");
          ("corpus generate --bound nope", "--bound", "expected a positive integer");
          ("corpus generate --bound 0", "--bound", "expected a positive integer");
          ("corpus generate --ops bogus", "--ops", "unknown operator");
          ("corpus generate --model bogus", "--model", "unknown model");
          ("run CoRR --jobs=0", "--jobs", "expected an integer >= 1, got 0");
          ("run CoRR --iterations=-1", "--iterations", "expected an integer >= 0, got -1");
          ("run CoRR --scale=0", "--scale", "expected a number in (0,1]");
          ("run CoRR --scale=nan", "--scale", "expected a number in (0,1]");
          ( "oracle --no-certify --no-soundness --json /dev/null/dir/x.json",
            "--json",
            "/dev/null/dir/x.json" );
          ("emit-suite /dev/null/a/b", "DIR", "/dev/null/a/b");
          ( "corpus generate --shape 2x2x1 --ops none -o /dev/null/x.json",
            "--out",
            "/dev/null/x.json" );
          ("serve --store " ^ store ^ " --socket /dev/null/dir/s.sock", "--socket", "/dev/null/dir/s.sock");
          ("analysis --stats /dev/null/x.json", "--stats", ": /dev/null/x.json: ");
          (* Checked before the sweep: each would otherwise run it first. *)
          ("cts --rep 1", "--rep", "expected a number in (0,1), got 1");
          ("cts --rep 0", "--rep", "expected a number in (0,1), got 0");
          ("cts --rep 95", "--rep", "expected a number in (0,1), got 95");
          ("cts --budget 0", "--budget", "expected a finite number > 0, got 0");
          ("cts --budget=-2", "--budget", "expected a finite number > 0, got -2");
          ("cts --budget nan", "--budget", "expected a finite number > 0, got nan");
          (* Checked before the load: the stats path does not exist. *)
          ("analysis --stats /dev/null/x.json --action merge --rep 0", "--rep",
           "expected a percent in (0,100), got 0");
          ("analysis --stats /dev/null/x.json --action merge --rep 100", "--rep",
           "expected a percent in (0,100), got 100");
          ("analysis --stats /dev/null/x.json --action merge --budget 0", "--budget",
           "expected a finite number > 0, got 0");
          ("analysis --stats /dev/null/x.json --action merge --budget nan", "--budget",
           "expected a finite number > 0, got nan");
          ("analysis --stats /dev/null/x.json --category BOGUS", "--category",
           "unknown category \"BOGUS\" (SITE-baseline|SITE|PTE-baseline|PTE)");
          ("analysis --stats /dev/null/x.json --action bogus", "--action",
           "unknown action \"bogus\" (mutation-score|merge|correlation)");
          (* Checked after the load, against the tests the file holds. *)
          ("analysis --stats " ^ stats ^ " --action correlation --test nope", "--test",
           "unknown test \"nope\"");
        ]
      in
      List.iter
        (fun (args, flag, fragment) ->
          let code, output = run_cli args in
          check (args ^ " exits 1") true (code = 1);
          check (args ^ " names the flag") true (contains ~needle:flag output);
          check (args ^ " explains the problem") true (contains ~needle:fragment output);
          check (args ^ " raises nothing") false (contains ~needle:"internal error" output))
        cases;
      let _, output = run_cli "analysis --stats /dev/null/x.json" in
      check "analysis names the stats path once" false
        (contains ~needle:"/dev/null/x.json: /dev/null/x.json" output))

(* cmdliner checks a command's option names only when that command is
   evaluated, so a flag two shared terms both define would pass every
   test that never runs that command. *)
let leaf_commands =
  [
    "list"; "show"; "enumerate"; "run"; "parse"; "export"; "wgsl"; "table2"; "table3"; "fig5";
    "fig6"; "table4"; "tune"; "analysis"; "cts"; "prune"; "emit-suite"; "models"; "oracle";
    "cache stats"; "cache gc"; "cache verify"; "serve"; "submit"; "watch"; "report"; "admin";
    "corpus generate"; "corpus certify"; "corpus list"; "corpus run"; "version";
  ]

let test_every_command_evaluates () =
  check "32 leaf commands" true (List.length leaf_commands = 32);
  List.iter
    (fun cmd ->
      let code, output = run_cli (cmd ^ " --help=plain") in
      if code <> 0 then Alcotest.failf "%s --help exited %d:\n%s" cmd code output;
      check (cmd ^ " has no --plan") false (contains ~needle:"--plan" output))
    leaf_commands

let test_version_reports_corpus_version () =
  let code, output = run_cli "version --json" in
  if code <> 0 then Alcotest.failf "version failed (exit %d):\n%s" code output;
  let report =
    match Jsonp.parse output with Ok j -> j | Error e -> Alcotest.failf "bad JSON: %s" e
  in
  check "corpusVersion present and matches the library" true
    (Option.bind (Jsonp.member "corpusVersion" report) Jsonp.to_string_opt
    = Some Mcm_corpus.Version.version);
  let code, output = run_cli "version" in
  if code <> 0 then Alcotest.failf "version failed (exit %d):\n%s" code output;
  check "plain output names the generator version" true
    (contains ~needle:Mcm_corpus.Version.version output)

let () =
  Alcotest.run "cli-corpus"
    [
      ( "pipeline",
        [
          Alcotest.test_case "generate, certify, list" `Quick test_generate_certify_list;
          Alcotest.test_case "run caches through the store" `Quick test_run_store_warm_hits;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "seeded generate is byte-reproducible" `Quick
            test_generate_reproducible_bytes;
          Alcotest.test_case "tampered corpus refused" `Quick test_tampered_corpus_refused;
        ] );
      ( "flags",
        [
          Alcotest.test_case "malformed values name the flag" `Quick
            test_malformed_flags_name_the_flag;
          Alcotest.test_case "every command's arguments evaluate" `Quick
            test_every_command_evaluates;
          Alcotest.test_case "version carries corpusVersion" `Quick
            test_version_reports_corpus_version;
        ] );
    ]

(* The mcmutants command-line interface.

   Subcommands mirror the paper's workflow: inspect the generated suite
   (list/show/enumerate), run individual tests in chosen environments on
   simulated devices (run), and regenerate every table and figure of the
   evaluation (table2/table3/fig5/fig6/table4), plus the CTS-curation
   story of Sec. 4.2 (cts). *)

module Model = Mcm_memmodel.Model
module Litmus = Mcm_litmus.Litmus
module Enumerate = Mcm_litmus.Enumerate
module Library = Mcm_litmus.Library
module Suite = Mcm_core.Suite
module Mutator = Mcm_core.Mutator
module Confidence = Mcm_core.Confidence
module MergeAlg = Mcm_core.Merge
module Profile = Mcm_gpu.Profile
module Device = Mcm_gpu.Device
module Bug = Mcm_gpu.Bug
module Params = Mcm_testenv.Params
module Runner = Mcm_testenv.Runner
module Request = Mcm_testenv.Request
module Tuning = Mcm_harness.Tuning
module Experiments = Mcm_harness.Experiments
module Results = Mcm_harness.Results
module Table = Mcm_util.Table
module Prng = Mcm_util.Prng
module CKey = Mcm_campaign.Key
module Store = Mcm_campaign.Store
module Journal = Mcm_campaign.Journal

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                     *)

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("mcmutants: " ^ msg);
      exit 1

(* A term whose value is validated once, after parsing: an [Error msg]
   prints "mcmutants: msg" and exits 1 ([main] sets [~term_err:1]). *)
let checked t = Term.term_result' ~usage:false t

(* An optional flag [check]ed once; its errors name the flag. *)
let validated ?docv ~doc names typ default check =
  let long = "--" ^ List.nth names (List.length names - 1) in
  checked
    Term.(
      const (fun v -> Result.map_error (fun e -> long ^ ": " ^ e) (check v))
      $ Arg.(value & opt typ default & info names ?docv ~doc))

let at_least lo n =
  if n >= lo then Ok n else Error (Printf.sprintf "expected an integer >= %d, got %d" lo n)

let one_of what find choices name =
  match find name with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "unknown %s %S (%s)" what name (String.concat "|" choices))

let find_test name =
  match Suite.find_test name with
  | Some t -> Ok t
  | None -> Error (Printf.sprintf "unknown test %S (try `mcmutants list`)" name)

let test_t =
  let doc = "Test name (generated suite first, then the classic library)." in
  checked Term.(const find_test $ Arg.(required & pos 0 (some string) None & info [] ~docv:"TEST" ~doc))

let seed_arg =
  let doc = "Random seed (all runs are deterministic in it)." in
  Arg.(value & opt int 20230325 & info [ "seed" ] ~docv:"SEED" ~doc)

let bugs_arg =
  let doc = "Inject the vendor's paper bug into the device (Sec. 5.4)." in
  Arg.(value & flag & info [ "bugs" ] ~doc)

let histogram_arg =
  let doc = "Classify every executed instance (sequential/interleaved/weak/forbidden)." in
  Arg.(value & flag & info [ "histogram" ] ~doc)

let jobs_t =
  validated [ "j"; "jobs" ] Arg.int (Mcm_util.Pool.default_domains ()) (at_least 1) ~docv:"N"
    ~doc:
      "Worker domains for parallel execution (campaign iterations and sweep grid points are \
       sharded across them; results are bit-identical for any value). At least 1; defaults to \
       the machine's recommended domain count."

let iterations_t =
  validated [ "n"; "iterations" ] Arg.int 10 (at_least 0) ~docv:"N"
    ~doc:"Testing iterations (kernel launches), at least 0."

let scale_t =
  let check = function
    | Some s when not (s > 0. && s <= 1.) ->
        Error (Printf.sprintf "expected a number in (0,1], got %g" s)
    | s -> Ok s
  in
  validated [ "scale" ] Arg.(some float) None check ~docv:"S"
    ~doc:
      "Environment size scale factor in (0,1]; 1.0 is paper scale. Defaults to $(b,MCM_SCALE), \
       else 0.02."

let env_arg =
  let doc =
    "Testing environment: site-baseline, pte-baseline, site:N or pte:N (the Nth random \
     environment of that kind)."
  in
  Arg.(value & opt string "pte-baseline" & info [ "e"; "env" ] ~docv:"ENV" ~doc)

(* [Tuning.env_float] raises on a set-but-malformed variable. *)
let parse_env name seed scale =
  let ( let* ) = Result.bind in
  let* scale =
    match scale with
    | Some s -> Ok s
    | None -> ( try Ok (Tuning.env_float "MCM_SCALE" 0.02) with Failure msg -> Error msg)
  in
  let lower = String.lowercase_ascii name in
  let random mode index =
    let g = Prng.create (Prng.mix seed (Hashtbl.hash (lower, "env"))) in
    let envs = List.init (index + 1) (fun _ -> Params.random g mode) in
    Params.scaled (List.nth envs index) scale
  in
  match String.split_on_char ':' lower with
  | [ "site-baseline" ] -> Ok Params.site_baseline
  | [ "pte-baseline" ] -> Ok (Params.scaled Params.pte_baseline scale)
  | [ "site" ] -> Ok (random Params.Single 0)
  | [ "pte" ] -> Ok (random Params.Parallel 0)
  | [ "site"; n ] | [ "pte"; n ] as parts -> (
      match int_of_string_opt n with
      | Some i when i >= 0 ->
          let mode = if List.hd parts = "site" then Params.Single else Params.Parallel in
          Ok (random mode i)
      | _ -> Error (Printf.sprintf "--env: bad environment index in %S" name))
  | _ -> Error (Printf.sprintf "--env: unknown environment %S" name)

(* The environment alone, for commands that emit rather than run. *)
let env_t = checked Term.(const parse_env $ env_arg $ seed_arg $ scale_t)

let oracle_engine_t =
  let module Engine = Mcm_oracle.Engine in
  validated [ "engine" ] Arg.string (Engine.name Engine.default)
    (one_of "oracle engine" Engine.of_string (List.map Engine.name Engine.all))
    ~docv:"ENGINE"
    ~doc:
      "Oracle engine: $(b,propagate) (constraint propagation, the default) or $(b,enumerate) \
       (the brute-force reference). Both give identical verdicts."

(* ------------------------------------------------------------------ *)
(* The campaign cell: one test's device, environment and run length     *)

type cell = {
  profile : Profile.t;
  env : Params.t;
  iterations : int;
  seed : int;
  engine : Request.engine;
}

let cell_t =
  let device =
    validated [ "d"; "device" ] Arg.string "nvidia"
      (one_of "device" Profile.find [ "nvidia"; "amd"; "intel"; "m1" ])
      ~docv:"DEVICE" ~doc:"Simulated device: nvidia, amd, intel or m1."
  in
  let engine =
    validated [ "engine" ] Arg.string "kernel"
      (one_of "engine" Request.engine_of_name (List.map fst Request.engines))
      ~docv:"ENGINE" ~doc:"Simulation engine: kernel (compiled, default) or interpreter (reference)."
  in
  let make profile env_name seed scale iterations engine =
    Result.map
      (fun env -> { profile; env; iterations; seed; engine })
      (parse_env env_name seed scale)
  in
  checked Term.(const make $ device $ env_arg $ seed_arg $ scale_t $ iterations_t $ engine)

let cell_request cell ~device ~test =
  Request.make ~engine:cell.engine ~device ~env:cell.env ~test ~iterations:cell.iterations
    ~seed:cell.seed ()

(* ------------------------------------------------------------------ *)
(* The execution context: domains, and the store with its journal       *)

type exec = { jobs : int; store_dir : string option; resume : bool }

let no_store jobs = { jobs; store_dir = None; resume = false }

let exec_term resume =
  let store_dir =
    let doc =
      "Campaign store directory: cache every campaign cell content-addressed on disk and serve \
       repeats from the cache (results are bit-identical either way)."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let make jobs store_dir resume =
    if resume && store_dir = None then Error "--resume requires --store DIR"
    else Ok { jobs; store_dir; resume }
  in
  checked Term.(const make $ jobs_t $ store_dir $ resume)

let exec_t = exec_term (Term.const false)

(* --jobs, --store and --resume, for the journaled sweeps. *)
let resumable_exec_t =
  let doc =
    "Resume an interrupted sweep from the store's journal (requires $(b,--store)); errors out \
     unless the journal matches this exact sweep configuration."
  in
  exec_term Arg.(value & flag & info [ "resume" ] ~doc)

let store_req =
  Arg.(required & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc:"Campaign store directory.")

let journal_path dir = Filename.concat dir "journal.jsonl"

let print_store_warnings store =
  List.iter (fun w -> Printf.eprintf "store: %s\n" w) (Store.warnings store)

let with_store dir f =
  let store =
    try Store.open_store dir with
    | Failure e | Sys_error e -> or_die (Error ("--store: " ^ e))
    | Unix.Unix_error (e, _, _) ->
        or_die (Error (Printf.sprintf "--store: %s: %s" dir (Unix.error_message e)))
  in
  Fun.protect ~finally:(fun () -> Store.close store) (fun () -> f store)

(* --resume contract: the journal must already describe this sweep. *)
let check_resume sweep journal =
  match Journal.header journal with
  | Some h when CKey.equal h.Journal.sweep sweep && not (Journal.finished journal) ->
      Printf.eprintf "resume: journal matches sweep %s, %d/%d cell(s) already durable\n%!"
        (CKey.to_hex sweep) (Journal.progress journal) h.Journal.cells
  | Some h when CKey.equal h.Journal.sweep sweep ->
      Printf.eprintf "resume: sweep %s already finished; serving it from the store\n%!"
        (CKey.to_hex sweep)
  | _ ->
      or_die
        (Error
           "--resume: the store's journal does not match this sweep configuration (run without \
            --resume first)")

(* Run [f] in the context [exec] describes: [jobs] worker domains, plus
   the store and its journal when a store directory was given. With
   --resume, the journal must already describe the sweep whose key
   [sweep] computes. Cache traffic and the engine's compile/memoization
   counters go to stderr, so stdout stays byte-identical with and
   without a store. *)
let with_ctx ?sweep { jobs; store_dir; resume } f =
  let engine0 = Runner.engine_stats () in
  let print_engine_stats () =
    let d = Runner.engine_stats_sub (Runner.engine_stats ()) engine0 in
    Printf.eprintf "engine: %s\n%!" (Format.asprintf "%a" Runner.pp_engine_stats d)
  in
  match store_dir with
  | None ->
      let result = f (Request.context ~domains:jobs ()) in
      print_engine_stats ();
      result
  | Some dir ->
      with_store dir (fun store ->
          print_store_warnings store;
          Journal.with_journal (journal_path dir) (fun journal ->
              if resume then Option.iter (fun sweep -> check_resume (sweep ()) journal) sweep;
              let before = Store.count store in
              let result = f (Request.context ~domains:jobs ~store ~journal ()) in
              let computed = Store.count store - before in
              Printf.eprintf "store: %d record(s), %d added this run\n%!" (Store.count store)
                computed;
              print_engine_stats ();
              result))

(* Report a failure to write an output path as an error naming [flag]
   (the Sys_error message already names the path). *)
let writing flag f = try f () with Sys_error e -> or_die (Error (flag ^ ": " ^ e))

(* ------------------------------------------------------------------ *)
(* list                                                                 *)

let list_cmd =
  let run () =
    let t =
      Table.create
        ~aligns:[ Table.Left; Table.Left; Table.Left; Table.Left ]
        [ "Name"; "Role"; "Mutator"; "Model" ]
    in
    List.iter
      (fun (e : Suite.entry) ->
        Table.add_row t
          [
            e.Suite.test.Litmus.name;
            (match e.Suite.role with
            | Suite.Conformance -> "conformance"
            | Suite.Mutant_of c -> "mutant of " ^ c);
            Mutator.kind_name e.Suite.mutator;
            Model.name e.Suite.test.Litmus.model;
          ])
      (Suite.all ());
    Table.print t;
    Printf.printf "\nClassic library: %s\n"
      (String.concat ", " (List.map (fun t -> t.Litmus.name) Library.all))
  in
  Cmd.v (Cmd.info "list" ~doc:"List the generated suite (20 conformance tests, 32 mutants)")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* show                                                                 *)

(* What [show] and [parse] print: the program, its candidate counts, and
   the forbidden cycle or the allowed target. *)
let print_analysis test =
  print_endline (Litmus.to_string test);
  let total, consistent = Enumerate.count_candidates test in
  Printf.printf "\ncandidate executions: %d (%d consistent under %s)\n" total consistent
    (Model.name test.Litmus.model);
  match Enumerate.forbidden_cycle test with
  | Some cycle -> Printf.printf "target disallowed; forbidden hb cycle: %s\n" cycle
  | None ->
      if Enumerate.target_allowed test.Litmus.model test then
        print_endline "target allowed under the test's model (a mutant-style behaviour)"

let show_cmd =
  Cmd.v
    (Cmd.info "show" ~doc:"Print a test's program, target and enumeration facts")
    Term.(const print_analysis $ test_t)

(* ------------------------------------------------------------------ *)
(* enumerate                                                            *)

let enumerate_cmd =
  let run test =
    List.iter
      (fun m ->
        let outcomes = Enumerate.consistent_outcomes m test in
        Printf.printf "%-20s %d allowed outcomes:\n" (Model.name m) (List.length outcomes);
        List.iter (fun o -> Printf.printf "  %s\n" (Litmus.outcome_to_string o)) outcomes)
      Model.all
  in
  Cmd.v
    (Cmd.info "enumerate" ~doc:"Enumerate allowed outcomes under each memory model")
    Term.(const run $ test_t)

(* ------------------------------------------------------------------ *)
(* run                                                                  *)

let run_cmd =
  let run test cell bugs histogram exec =
    let profile = cell.profile in
    let device =
      if bugs then
        match Bug.paper_bug profile with
        | Some b ->
            Printf.printf "injected: %s\n" (Bug.describe b);
            Device.make ~bugs:[ b ] profile
        | None ->
            Printf.printf "(%s has no associated paper bug; running correct device)\n"
              profile.Profile.short_name;
            Device.make profile
      else Device.make profile
    in
    Printf.printf "device: %s\nenvironment: %s\n" (Device.name device)
      (Format.asprintf "%a" Params.pp cell.env);
    let mw0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let request = cell_request cell ~device ~test in
    let r, breakdown, chunk =
      with_ctx exec (fun ctx ->
          let chunk = Request.chunk_for ctx ~n:cell.iterations in
          if histogram then
            let r, h = Runner.exec Runner.Histogram request ctx in
            (r, Some h, chunk)
          else (Runner.exec Runner.Rate request ctx, None, chunk))
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    let minor = Gc.minor_words () -. mw0 in
    Printf.printf
      "iterations: %d\ninstances: %d\ntarget observed: %d\nsimulated time: %.6f s\nrate: %s /s\n"
      r.Runner.iterations r.Runner.instances r.Runner.kills r.Runner.sim_time_s
      (Table.rate_cell r.Runner.rate);
    (* Perf diagnostics: enough to spot an allocation or scheduling
       regression from the transcript alone. On stderr, so stdout stays
       byte-identical across --jobs values and repeated runs. *)
    let stat = Gc.quick_stat () in
    Printf.eprintf "wall time: %.3f s (%.0f instances/s)\n" wall_s
      (if wall_s > 0. then float_of_int r.Runner.instances /. wall_s else 0.);
    Printf.eprintf "pool: %d domain%s, chunk %d of %d iterations per claim\n" exec.jobs
      (if exec.jobs = 1 then "" else "s")
      chunk cell.iterations;
    Printf.eprintf "gc: %.0f minor words (%.1f per instance), %d minor / %d major collections\n"
      minor
      (if r.Runner.instances > 0 then minor /. float_of_int r.Runner.instances else 0.)
      stat.Gc.minor_collections stat.Gc.major_collections;
    (match breakdown with
    | None -> ()
    | Some h ->
        Printf.printf
          "behaviours: %d sequential, %d interleaved, %d weak, %d forbidden (%d skipped as \
           non-overlapping)\n"
          h.Runner.sequential h.Runner.interleaved h.Runner.weak h.Runner.forbidden
          h.Runner.skipped);
    if r.Runner.kills > 0 then
      Printf.printf "reproducibility of this campaign: %.5f\n"
        (Confidence.reproducibility ~kills:(float_of_int r.Runner.kills))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one test in a testing environment on a simulated device")
    Term.(const run $ test_t $ cell_t $ bugs_arg $ histogram_arg $ exec_t)

(* ------------------------------------------------------------------ *)
(* parse / export: the textual litmus format                            *)

let parse_cmd =
  let run path =
    match Mcm_litmus.Parse.parse_file path with
    | Error e ->
        prerr_endline ("mcmutants: " ^ path ^ ": " ^ e);
        exit 1
    | Ok test -> print_analysis test
  in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Litmus source file.")
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse a litmus test from its textual format and analyse it")
    Term.(const run $ path)

let export_cmd =
  let run test = print_string (Mcm_litmus.Parse.to_source test) in
  Cmd.v
    (Cmd.info "export" ~doc:"Print a test in the parseable textual litmus format")
    Term.(const run $ test_t)

(* ------------------------------------------------------------------ *)
(* wgsl                                                                 *)

let wgsl_cmd =
  let run test env =
    let src = Mcm_wgsl.Wgsl.shader test ~env in
    let invalid =
      match Mcm_wgsl.Wgsl.validate src with
      | Ok () -> false
      | Error e ->
          prerr_endline ("mcmutants: generated shader failed validation: " ^ e);
          true
    in
    print_string src;
    if invalid then exit 1
  in
  Cmd.v
    (Cmd.info "wgsl" ~doc:"Emit the WebGPU (WGSL) compute shader for a test in a PTE")
    Term.(const run $ test_t $ env_t)

(* ------------------------------------------------------------------ *)
(* tables and figures                                                   *)

let table2_cmd =
  let run () = Table.print (Experiments.table2 ()) in
  Cmd.v (Cmd.info "table2" ~doc:"Reproduce Table 2 (mutator inventory)") Term.(const run $ const ())

let table3_cmd =
  let run () = Table.print (Experiments.table3 ()) in
  Cmd.v (Cmd.info "table3" ~doc:"Reproduce Table 3 (device inventory)") Term.(const run $ const ())

let sweep_of_config exec =
  let config = try Tuning.default_config () with Failure msg -> or_die (Error msg) in
  Printf.printf
    "tuning sweep: %d envs/category, %d SITE iters, %d PTE iters, scale %.3f, seed %d, %d jobs\n%!"
    config.Tuning.n_envs config.Tuning.site_iterations config.Tuning.pte_iterations
    config.Tuning.scale config.Tuning.seed exec.jobs;
  with_ctx exec
    ~sweep:(fun () ->
      Tuning.sweep_key config ~devices:(Device.all_correct ()) ~tests:(Suite.mutants ()))
    (fun ctx -> Results.of_runs (Tuning.sweep ~ctx config))

let fig5_cmd =
  let run exec =
    let table = sweep_of_config exec in
    List.iter
      (fun (title, t) ->
        print_newline ();
        print_endline title;
        Table.print t)
      (Experiments.Fig5.all_tables table);
    print_newline ();
    print_endline "Simulated tuning time per category (Sec. 5.1):";
    List.iter
      (fun (name, s) -> Printf.printf "  %-14s %10.1f simulated seconds\n" name s)
      (Experiments.Fig5.tuning_time table)
  in
  Cmd.v
    (Cmd.info "fig5" ~doc:"Reproduce Figure 5 (mutation scores and death rates)")
    Term.(const run $ resumable_exec_t)

let fig6_cmd =
  let run exec =
    let table = sweep_of_config exec in
    print_newline ();
    print_endline "Figure 6: mutation score vs per-test time budget (merged environments, Alg. 1)";
    Table.print (Experiments.Fig6.table table)
  in
  Cmd.v
    (Cmd.info "fig6" ~doc:"Reproduce Figure 6 (reproducible mutation score vs time budget)")
    Term.(const run $ resumable_exec_t)

let table4_cmd =
  let run scale exec =
    let rows = with_ctx exec (fun ctx -> Experiments.Table4.compute ~ctx ?scale ()) in
    Table.print (Experiments.Table4.table rows)
  in
  Cmd.v
    (Cmd.info "table4" ~doc:"Reproduce Table 4 (mutant kills vs real-bug correlation)")
    Term.(const run $ scale_t $ exec_t)

(* ------------------------------------------------------------------ *)
(* oracle: certification and simulator soundness                        *)

let oracle_cmd =
  let run engine exec json_path no_certify no_soundness smoke inject_bug iterations seed tests =
    let jobs = exec.jobs in
    let module Certify = Mcm_oracle.Certify in
    let module Soundness = Mcm_oracle.Soundness in
    let module Engine = Mcm_oracle.Engine in
    let module Jsonw = Mcm_util.Jsonw in
    let failures = ref 0 in
    let json_fields = ref [ ("engine", Jsonw.String (Engine.name engine)) ] in
    let certify_reports =
      if no_certify then []
      else begin
        Printf.printf "certifying the generated suite (%d tests, %d jobs, %s engine)...\n%!"
          (List.length (Suite.all ())) jobs (Engine.name engine);
        let suite_report = Certify.suite ~engine ~domains:jobs () in
        Format.printf "%a" Certify.pp_report suite_report;
        Printf.printf "certifying the classic library (%d tests)...\n%!" (List.length Library.all);
        let library_report = Certify.library ~engine ~domains:jobs () in
        Format.printf "%a" Certify.pp_report library_report;
        failures := !failures + suite_report.Certify.failures + library_report.Certify.failures;
        [ ("certify_suite", suite_report); ("certify_library", library_report) ]
      end
    in
    List.iter
      (fun (name, r) -> json_fields := (name, Certify.report_to_json r) :: !json_fields)
      certify_reports;
    if not no_soundness then begin
      let tests =
        match tests with
        | [] -> None
        | names -> Some (List.map (fun n -> or_die (find_test n)) names)
      in
      let devices, envs, iterations =
        if smoke then
          ( Some [ Device.make Profile.nvidia; Device.make Profile.intel ],
            Some [ ("pte-baseline@0.01", Params.scaled Params.pte_baseline 0.01) ],
            1 )
        else (None, None, iterations)
      in
      (* A deliberately broken device: the soundness check must fail on
         it, which is how the checker (and both engines' counter-example
         paths) are exercised end to end. *)
      let devices =
        if inject_bug then
          Some
            (Option.value devices ~default:(Device.all_correct ())
            @ [ Device.make ~bugs:[ Bug.Coherence_alias 1.0 ] Profile.intel ])
        else devices
      in
      let n_tests =
        match tests with
        | Some t -> List.length t
        | None -> List.length (Soundness.default_tests ())
      in
      Printf.printf "soundness: replaying %d tests across the device/env matrix (%d jobs)...\n%!"
        n_tests jobs;
      let report =
        with_ctx exec
          ~sweep:(fun () -> Soundness.check_key ~iterations ~seed ?devices ?envs ?tests ())
          (fun ctx -> Soundness.check ~engine ~ctx ~iterations ~seed ?devices ?envs ?tests ())
      in
      Format.printf "%a" Soundness.pp_report report;
      failures := !failures + report.Soundness.total_violations;
      json_fields := ("soundness", Soundness.report_to_json report) :: !json_fields
    end;
    (match json_path with
    | None -> ()
    | Some path ->
        writing "--json" (fun () ->
            Out_channel.with_open_text path (fun oc ->
                Jsonw.to_channel oc (Jsonw.Obj (List.rev !json_fields));
                output_char oc '\n'));
        Printf.printf "wrote %s\n" path);
    if !failures > 0 then begin
      Printf.eprintf "mcmutants: oracle found %d failure(s)\n" !failures;
      exit 1
    end
    else print_endline "oracle: all checks passed"
  in
  let json_path =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Write the full report as JSON.")
  in
  let no_certify = Arg.(value & flag & info [ "no-certify" ] ~doc:"Skip mutant/conformance certification.") in
  let no_soundness = Arg.(value & flag & info [ "no-soundness" ] ~doc:"Skip the simulator soundness matrix.") in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Shrink the soundness matrix (2 devices, 1 small PTE env, 1 iteration) for CI.")
  in
  let oracle_tests =
    Arg.(
      value & opt_all string []
      & info [ "test" ] ~docv:"TEST" ~doc:"Restrict the soundness matrix to these tests (repeatable).")
  in
  let inject_bug =
    Arg.(
      value & flag
      & info [ "inject-bug" ]
          ~doc:
            "Add a deliberately buggy device (coherence disabled) to the soundness matrix; the \
             oracle must then report violations and exit non-zero — a self-test of the checker.")
  in
  Cmd.v
    (Cmd.info "oracle"
       ~doc:
         "Certify every conformance test and mutant against the axiomatic oracle, and check the \
          simulator's observed outcomes are axiomatically allowed")
    Term.(
      const run $ oracle_engine_t $ resumable_exec_t $ json_path $ no_certify $ no_soundness $ smoke
      $ inject_bug $ iterations_t $ seed_arg $ oracle_tests)

(* ------------------------------------------------------------------ *)
(* models: print the axiomatic models in CAT style                      *)

let models_cmd =
  let run () =
    List.iter
      (fun m ->
        Format.printf "%a@.@." Mcm_memmodel.Cat.pp m)
      Mcm_memmodel.Cat.all
  in
  Cmd.v
    (Cmd.info "models" ~doc:"Print the axiomatic memory models (CAT style)")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* emit-suite: write the CTS artifact (litmus sources + WGSL shaders)   *)

let emit_suite_cmd =
  let run dir env =
    writing "DIR" (fun () -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
    if not (Sys.is_directory dir) then or_die (Error ("DIR: " ^ dir ^ ": not a directory"));
    let sanitise name = String.map (fun c -> if c = '/' || c = '+' then '_' else c) name in
    let write path contents =
      writing "DIR" (fun () ->
          Out_channel.with_open_bin path (fun oc -> output_string oc contents))
    in
    let count = ref 0 and invalid = ref 0 in
    List.iter
      (fun (e : Suite.entry) ->
        let test = e.Suite.test in
        let base = Filename.concat dir (sanitise test.Litmus.name) in
        write (base ^ ".litmus") (Mcm_litmus.Parse.to_source test);
        let shader = Mcm_wgsl.Wgsl.shader test ~env in
        (match Mcm_wgsl.Wgsl.validate shader with
        | Ok () -> ()
        | Error err ->
            Printf.eprintf "mcmutants: %s shader failed validation: %s\n" test.Litmus.name err;
            incr invalid);
        write (base ^ ".wgsl") shader;
        incr count)
      (Suite.all ());
    Printf.printf "wrote %d tests (litmus + wgsl) to %s/\n" !count dir;
    if !invalid > 0 then begin
      Printf.eprintf "mcmutants: %d shader(s) failed validation\n" !invalid;
      exit 1
    end
  in
  let dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "emit-suite"
       ~doc:"Write the full generated suite as .litmus sources and PTE .wgsl shaders")
    Term.(const run $ dir $ env_t)

(* ------------------------------------------------------------------ *)
(* prune: Sec. 3.4 — drop mutants the implementation cannot exhibit     *)

let prune_cmd =
  let run impl =
    let implementation =
      match Mcm_memmodel.Cat.find impl with
      | Some m -> m
      | None ->
          prerr_endline
            ("mcmutants: unknown implementation model " ^ impl
           ^ " (sc|tso|rel-acq-sc-per-loc|sc-per-loc)");
          exit 1
    in
    let verdict = Mcm_core.Prune.prune_suite ~implementation () in
    let t =
      Table.create ~aligns:[ Table.Left; Table.Left; Table.Left ]
        [ "Mutant"; "Mutator"; "Verdict" ]
    in
    let add verdict_name (e : Suite.entry) =
      Table.add_row t
        [ e.Suite.test.Litmus.name; Mutator.kind_name e.Suite.mutator; verdict_name ]
    in
    List.iter (add "kept") verdict.Mcm_core.Prune.kept;
    List.iter (add "pruned") verdict.Mcm_core.Prune.pruned;
    Table.print t;
    Printf.printf
      "\n%d mutants kept, %d pruned: their behaviours are unobservable under %s (Sec. 3.4)\n"
      (List.length verdict.Mcm_core.Prune.kept)
      (List.length verdict.Mcm_core.Prune.pruned)
      implementation.Mcm_memmodel.Cat.name
  in
  let impl =
    Arg.(
      value & opt string "tso"
      & info [ "impl" ] ~docv:"MODEL" ~doc:"Implementation architecture model (e.g. tso).")
  in
  Cmd.v
    (Cmd.info "prune"
       ~doc:"Prune mutants whose behaviour an implementation model cannot exhibit (Sec. 3.4)")
    Term.(const run $ impl)

(* ------------------------------------------------------------------ *)
(* tune: run the sweep and save the artifact-style JSON                 *)

let tune_cmd =
  let run save jobs =
    let table = sweep_of_config (no_store jobs) in
    Printf.printf "%d measurements\n" (List.length (Results.records table));
    match save with
    | None -> print_endline "(use --save FILE to write the JSON results)"
    | Some path -> (
        match Results.save path table with
        | Ok () -> Printf.printf "saved %s\n" path
        | Error e -> or_die (Error ("--save: " ^ e)))
  in
  let save =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc:"Write results JSON.")
  in
  Cmd.v
    (Cmd.info "tune" ~doc:"Run the tuning sweep and optionally save results as JSON")
    Term.(const run $ save $ jobs_t)

(* ------------------------------------------------------------------ *)
(* analysis: the artifact's analysis.py, over saved JSON                *)

(* --rep and --budget of the commands that merge environments. *)
let in_open lo hi what x =
  if x > lo && x < hi then Ok x
  else Error (Printf.sprintf "expected %s in (%g,%g), got %g" what lo hi x)

let budget_t default =
  validated [ "budget" ] Arg.float default ~docv:"B"
    ~doc:"Per-test time budget in seconds, finite and > 0."
    (fun b ->
      if Float.is_finite b && b > 0. then Ok b
      else Error (Printf.sprintf "expected a finite number > 0, got %g" b))

let analysis_cmd =
  let run action stats_path category rep budget tests =
    let table = or_die (Result.map_error (fun e -> "--stats: " ^ e) (Results.load stats_path)) in
    let known = Results.tests table in
    Option.iter
      (fun name -> or_die (Error (Printf.sprintf "--test: unknown test %S in %s" name stats_path)))
      (List.find_opt (fun name -> not (List.mem name known)) tests);
    match action with
    | `Mutation_score ->
        let t = Table.create [ "Mutator"; "Mutation score"; "Avg death rate (/s)" ] in
        List.iter
          (fun (label, score, rate) ->
            Table.add_row t [ label; Table.pct_cell score; Table.rate_cell rate ])
          (Results.mutation_score table ~category);
        Table.print t
    | `Merge ->
        let score = Results.merge_score table ~category ~target:(rep /. 100.) ~budget in
        Printf.printf
          "%s of tests reproducible on all devices at %g%% within %gs per test (category %s)\n"
          (Table.pct_cell score) rep budget category
    | `Correlation ->
        let tests = if tests = [] then known else tests in
        let matrix = Results.correlation_matrix table ~category ~tests in
        let t = Table.create ("" :: tests) in
        List.iteri
          (fun i name ->
            Table.add_row t
              (name
              :: Array.to_list (Array.map (fun r -> Table.float_cell ~decimals:3 r) matrix.(i))))
          tests;
        Table.print t
  in
  let action =
    let actions =
      [ ("mutation-score", `Mutation_score); ("merge", `Merge); ("correlation", `Correlation) ]
    in
    validated [ "action" ] Arg.string "mutation-score" ~docv:"ACTION"
      ~doc:"mutation-score, merge or correlation."
      (one_of "action" (fun a -> List.assoc_opt a actions) (List.map fst actions))
  in
  let stats =
    Arg.(
      required
      & opt (some string) None
      & info [ "stats" ] ~docv:"FILE" ~doc:"Results JSON written by `mcmutants tune --save`.")
  in
  let category =
    let names = List.map Tuning.category_name Tuning.all_categories in
    validated [ "category" ] Arg.string "PTE" ~docv:"CAT"
      ~doc:"Environment category: SITE-baseline, SITE, PTE-baseline or PTE."
      (one_of "category" (fun c -> List.find_opt (String.equal c) names) names)
  in
  let rep =
    validated [ "rep" ] Arg.float 95. ~docv:"R"
      ~doc:"Reproducibility target in percent, in (0,100)."
      (in_open 0. 100. "a percent")
  in
  let tests =
    Arg.(value & opt_all string [] & info [ "test" ] ~docv:"TEST" ~doc:"Tests to correlate.")
  in
  Cmd.v
    (Cmd.info "analysis" ~doc:"Analyse saved tuning results (the artifact's analysis.py)")
    Term.(const run $ action $ stats $ category $ rep $ budget_t 1.0 $ tests)

(* ------------------------------------------------------------------ *)
(* cts: the Sec. 4.2 curation story                                     *)

let cts_cmd =
  let run target budget jobs =
    let table = sweep_of_config (no_store jobs) in
    let category = Tuning.category_name Tuning.Pte in
    let n_devices = List.length (Results.devices table) in
    let mutants = Results.tests table in
    let t =
      Table.create
        ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
        [ "Mutant"; "Chosen env"; "Devices at ceiling"; "Min rate (/s)" ]
    in
    let chosen =
      List.filter_map
        (fun name ->
          match Results.choose table ~category ~test:name ~target ~budget with
          | None ->
              Table.add_row t [ name; "-"; "0"; "0" ];
              None
          | Some c ->
              Table.add_row t
                [
                  name;
                  string_of_int c.MergeAlg.env;
                  string_of_int c.MergeAlg.devices_at_ceiling;
                  Table.rate_cell c.MergeAlg.min_positive_rate;
                ];
              Some c)
        mutants
    in
    Table.print t;
    let full = List.filter (fun c -> c.MergeAlg.devices_at_ceiling = n_devices) chosen in
    Printf.printf
      "\n%d/%d mutants reproducible on all devices at %.5g%% within %gs per test\n"
      (List.length full) (List.length mutants) (100. *. target) budget;
    Printf.printf "total suite budget: %g s for %d conformance tests\n"
      (budget *. float_of_int (List.length (Suite.conformance_tests ())))
      (List.length (Suite.conformance_tests ()));
    Printf.printf "total reproducibility across the suite: %.4f%%\n"
      (100. *. Confidence.total_reproducibility ~per_test:target ~tests:(List.length mutants))
  in
  let target =
    validated [ "rep" ] Arg.float 0.99999 ~docv:"R" ~doc:"Reproducibility target in (0,1)."
      (in_open 0. 1. "a number")
  in
  Cmd.v
    (Cmd.info "cts" ~doc:"Curate per-test environments for a conformance test suite (Alg. 1)")
    Term.(const run $ target $ budget_t 4.0 $ jobs_t)

(* ------------------------------------------------------------------ *)
(* cache: inspect and maintain a campaign store                         *)

let cache_cmd =
  let stats_cmd =
    (* A read-only snapshot, not a writer open: stats must work while a
       daemon or sweep holds the writer lock and appends. *)
    let run dir =
      let ro = try Store.Ro.open_ro dir with Failure msg -> or_die (Error msg) in
      List.iter (fun w -> Printf.eprintf "store: %s\n" w) (Store.Ro.warnings ro);
      Printf.printf "store: %s (read-only snapshot)\n" (Store.Ro.dir ro);
      Printf.printf "records: %d\n" (Store.Ro.count ro);
      Printf.printf "segments: %d (%d bytes)\n" (Store.Ro.segments ro) (Store.Ro.bytes ro);
      let j = Journal.open_ (journal_path dir) in
      (match Journal.header j with
      | None -> print_endline "journal: none"
      | Some h ->
          Printf.printf "journal: sweep %s, %d/%d cell(s) durable%s\n"
            (CKey.to_hex h.Journal.sweep) (Journal.progress j) h.Journal.cells
            (if Journal.finished j then " (finished)" else " (interrupted — resumable)"));
      Journal.close j
    in
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Report a store's records, segments and journal, from a lock-free read-only \
            snapshot (safe while a daemon or sweep is writing)")
      Term.(const run $ store_req)
  in
  let gc_cmd =
    let run dir =
      with_store dir (fun store ->
          print_store_warnings store;
          let before = Store.stats store in
          let dropped = Store.gc store in
          let after = Store.stats store in
          Printf.printf "compacted %d segment(s) into 1: %d record(s), %d -> %d bytes, %d \
                         stale record(s) dropped\n"
            before.Store.s_segments after.Store.s_records before.Store.s_bytes
            after.Store.s_bytes dropped)
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:"Compact a store into one deduplicated, corruption-free segment (atomic rename)")
      Term.(const run $ store_req)
  in
  let verify_cmd =
    let run dir =
      match Store.verify dir with
      | Error e -> or_die (Error e)
      | Ok report ->
          Format.printf "%a@." Store.pp_verify report;
          if not (Store.verify_ok report) then begin
            prerr_endline "mcmutants: store integrity check failed";
            exit 1
          end
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Check a store's on-disk integrity read-only; exit non-zero on any bad record, \
            torn tail or duplicate")
      Term.(const run $ store_req)
  in
  Cmd.group
    (Cmd.info "cache" ~doc:"Inspect and maintain a campaign store (stats, gc, verify)")
    [ stats_cmd; gc_cmd; verify_cmd ]

(* ------------------------------------------------------------------ *)
(* serve / submit / watch / report / admin: the campaign service        *)

module Proto = Mcm_serve.Proto
module Server = Mcm_serve.Server
module Client = Mcm_serve.Client

let socket_arg =
  let doc = "Daemon socket path (defaults to STORE/serve.sock on the serve side)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let socket_req =
  let doc = "Daemon socket path." in
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let run store_dir socket port jobs verbose =
    let socket =
      match socket with Some s -> s | None -> Filename.concat store_dir "serve.sock"
    in
    match
      Server.run { Server.store_dir; socket_path = socket; port; jobs; verbose }
    with
    | summary ->
        Printf.printf
          "serve: done — %d session(s), %d warm hit(s), %d computed, %d deduplicated\n"
          summary.Server.sessions summary.Server.served summary.Server.computed
          summary.Server.joined
    | exception Server.Start_error (what, msg) ->
        let flag = match what with `Store -> "--store" | `Socket -> "--socket" | `Port -> "--port" in
        or_die (Error (flag ^ ": " ^ msg))
    | exception Failure msg -> or_die (Error msg)
  in
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"N" ~doc:"Also listen on TCP 127.0.0.1:$(docv).")
  in
  let verbose = Arg.(value & flag & info [ "verbose" ] ~doc:"Log every service event to stderr.") in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the campaign daemon: serve warm hits from the store instantly, deduplicate \
          identical in-flight requests across clients, execute misses with per-client fair \
          scheduling, stream results back incrementally")
    Term.(const run $ store_req $ socket_arg $ port $ jobs_t $ verbose)

(* Build the submit grid client-side: name-or-file tests crossed with
   one campaign cell, the environment shipped as full canonical params
   so the daemon needs no tuning context. *)
let submit_cells tests litmus_files cell bugs =
  let make c_test =
    {
      Proto.c_test;
      c_device = String.lowercase_ascii cell.profile.Profile.short_name;
      c_bugs = bugs;
      c_env = cell.env;
      c_iterations = cell.iterations;
      c_seed = cell.seed;
      c_engine = cell.engine;
    }
  in
  (* Resolve names locally for a friendly error, but send the name: the
     daemon resolves it through the same [Suite.find_test]. *)
  let named = List.map (fun name -> ignore (or_die (find_test name)); make (Proto.Name name)) tests in
  let sourced =
    List.map
      (fun path ->
        let src =
          try In_channel.with_open_bin path In_channel.input_all
          with Sys_error e -> or_die (Error ("--litmus: " ^ e))
        in
        (match Mcm_litmus.Parse.parse src with
        | Ok _ -> ()
        | Error e -> or_die (Error ("--litmus: " ^ path ^ ": " ^ e)));
        make (Proto.Source src))
      litmus_files
  in
  match named @ sourced with
  | [] -> or_die (Error "nothing to submit (give TEST names or --litmus FILE)")
  | cells -> cells

let submit_cmd =
  let run socket tests litmus_files cell bugs kind priority json =
    let cells = submit_cells tests litmus_files cell bugs in
    let client = or_die (Client.connect ~name:"submit" socket) in
    let on_event msg = if json then print_endline (String.trim (Proto.server_to_line msg)) in
    (match Client.submit ~priority ~on_event ~kind client cells with
    | Error e ->
        Client.close client;
        or_die (Error e)
    | Ok grid ->
        Client.close client;
        if not json then begin
          Printf.printf "submitted %d cell(s): %d warm hit(s), %d queued, %d deduplicated\n"
            grid.Client.total grid.Client.hits grid.Client.queued grid.Client.joined;
          Array.iteri
            (fun i r ->
              let label =
                match (List.nth cells i).Proto.c_test with
                | Proto.Name n -> n
                | Proto.Source _ -> List.nth litmus_files (i - List.length tests)
              in
              match (kind, Runner.decode Runner.Rate r.Client.payload) with
              | "run", Ok res ->
                  Printf.printf "%-24s %s  kills %d/%d  rate %s /s  key %s\n" label
                    (if r.Client.cached then "cached " else "computed")
                    res.Runner.kills res.Runner.instances
                    (Table.rate_cell res.Runner.rate)
                    r.Client.key
              | _ ->
                  Printf.printf "%-24s %s  key %s  %s\n" label
                    (if r.Client.cached then "cached " else "computed")
                    r.Client.key
                    (Mcm_util.Jsonw.to_string r.Client.payload))
            grid.Client.cells
        end)
  in
  let tests =
    Arg.(value & pos_all string [] & info [] ~docv:"TEST" ~doc:"Test names to submit.")
  in
  let litmus_files =
    Arg.(
      value & opt_all string []
      & info [ "litmus" ] ~docv:"FILE" ~doc:"Submit a textual litmus source file (repeatable).")
  in
  let kind =
    Arg.(
      value
      & opt (enum [ ("run", "run"); ("histogram", "histogram"); ("outcomes", "outcomes") ]) "run"
      & info [ "kind" ] ~docv:"KIND" ~doc:"Result payload: run, histogram or outcomes.")
  in
  let priority =
    Arg.(
      value & opt int 0
      & info [ "priority" ] ~docv:"N" ~doc:"Scheduling priority (higher runs first).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Stream the raw protocol events as JSONL instead.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit campaign cells to a running daemon and stream the results back (warm hits \
          answer instantly; identical in-flight cells are deduplicated across clients)")
    Term.(
      const run $ socket_req $ tests $ litmus_files $ cell_t $ bugs_arg $ kind $ priority $ json)

let watch_cmd =
  let run socket =
    let client = or_die (Client.connect ~name:"watch" socket) in
    Client.send client Proto.Watch;
    let rec loop () =
      match Client.recv client with
      | Error e ->
          Client.close client;
          or_die (Error e)
      | Ok (Proto.Progress { queued; inflight; clients; served; computed }) ->
          Printf.printf "queued %d  inflight %d  clients %d  served %d  computed %d\n%!" queued
            inflight clients served computed;
          loop ()
      | Ok (Proto.Bye { reason }) ->
          Printf.printf "daemon: bye (%s)\n" reason;
          Client.close client
      | Ok _ -> loop ()
    in
    loop ()
  in
  Cmd.v
    (Cmd.info "watch" ~doc:"Attach to a daemon and stream queue/progress events until it exits")
    Term.(const run $ socket_req)

let report_cmd =
  let run socket json =
    let client = or_die (Client.connect ~name:"report" socket) in
    let reply = Client.request client Proto.Report in
    Client.close client;
    let data = or_die reply in
    if json then print_endline (Mcm_util.Jsonw.to_string data)
    else begin
      let module Jsonp = Mcm_util.Jsonp in
      let int path v = Option.value ~default:0 (Option.bind (Jsonp.member path v) Jsonp.to_int) in
      let str path v =
        Option.value ~default:"" (Option.bind (Jsonp.member path v) Jsonp.to_string_opt)
      in
      (match Jsonp.member "totals" data with
      | Some t ->
          Printf.printf
            "daemon totals: %d session(s), %d submission(s), %d cell(s) — %d hit(s), %d \
             joined, %d computed\n"
            (int "sessions" t) (int "submissions" t) (int "cells" t) (int "hits" t)
            (int "joined" t) (int "computed" t)
      | None -> ());
      (match Jsonp.member "store" data with
      | Some s -> Printf.printf "store: %s (%d record(s))\n" (str "dir" s) (int "records" s)
      | None -> ());
      (match Jsonp.member "engine" data with
      | Some e ->
          Printf.printf
            "engine: %d kernel(s) compiled, %d schema reuse(s), %d workspace reuse(s)\n"
            (int "kernelsCompiled" e) (int "schemaReuses" e) (int "workspaceReuses" e)
      | None -> ());
      let rows = match Jsonp.member "rows" data with Some r -> Jsonp.to_list r | None -> [] in
      if rows <> [] then begin
        let t =
          Table.create
            ~aligns:
              [ Table.Left; Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
                Table.Right; Table.Right ]
            [ "Test"; "Device"; "Env"; "Cells"; "Hits"; "Joined"; "Computed"; "Hit rate" ]
        in
        List.iter
          (fun r ->
            let cells = int "cells" r in
            let hits = int "hits" r in
            Table.add_row t
              [
                str "test" r;
                str "device" r;
                str "env" r;
                string_of_int cells;
                string_of_int hits;
                string_of_int (int "joined" r);
                string_of_int (int "computed" r);
                (if cells > 0 then Table.pct_cell (float_of_int hits /. float_of_int cells)
                 else "-");
              ])
          rows;
        Table.print t
      end
    end
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Print the raw report JSON.") in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Per-test/per-device/per-environment service counters of a running daemon: hit \
          rates, dedup joins, computed cells and outcome totals")
    Term.(const run $ socket_req $ json)

let admin_cmd =
  let run socket action =
    let client = or_die (Client.connect ~name:"admin" socket) in
    let finish () = Client.close client in
    let request msg =
      let reply = Client.request client msg in
      finish ();
      or_die reply
    in
    (match action with
    | "ping" -> (
        Client.send client Proto.Ping;
        match Client.recv client with
        | Ok Proto.Pong ->
            print_endline "pong";
            finish ()
        | Ok _ | Error _ ->
            finish ();
            or_die (Error "no pong from daemon"))
    | "queue" -> print_endline (Mcm_util.Jsonw.to_string (request Proto.Queue))
    | "drain" -> Printf.printf "draining: %s\n" (Mcm_util.Jsonw.to_string (request Proto.Drain))
    | "shutdown" -> (
        Client.send client Proto.Shutdown;
        (* The daemon answers with Bye as it exits. *)
        match Client.recv client with
        | Ok (Proto.Bye _) | Error _ ->
            print_endline "daemon shut down";
            finish ()
        | Ok _ ->
            print_endline "shutdown requested";
            finish ())
    | other -> or_die (Error (Printf.sprintf "unknown action %S (ping|queue|drain|shutdown)" other)))
  in
  let action =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ACTION" ~doc:"ping, queue, drain or shutdown.")
  in
  Cmd.v
    (Cmd.info "admin"
       ~doc:
         "Administer a running daemon: ping it, inspect the queue and in-flight cells, drain \
          admissions, or shut it down gracefully")
    Term.(const run $ socket_req $ action)

(* ------------------------------------------------------------------ *)
(* corpus: generated litmus corpus                                      *)

module Corpus = Mcm_corpus.Corpus
module CShape = Mcm_corpus.Shape
module CAdmit = Mcm_corpus.Admit
module HGrid = Mcm_harness.Grid

let corpus_arg =
  let doc = "Corpus file (written by $(b,corpus generate))." in
  Arg.(value & opt string "corpus.json" & info [ "corpus" ] ~docv:"FILE" ~doc)

let load_corpus path = or_die (Corpus.load ~path)

let corpus_generate_cmd =
  let run shape model bound seed ops engine cross_check shard jobs out =
    let meta = { Corpus.shape; model; seed; bound; ops; engine; shard } in
    let t0 = Unix.gettimeofday () in
    let corpus = Corpus.generate ~cross_check ~domains:jobs meta in
    let wall = Unix.gettimeofday () -. t0 in
    let s = corpus.Corpus.stats in
    Printf.printf "corpus version: %s\n" Mcm_corpus.Version.version;
    Printf.printf "shape: %s, model %s, seed %d%s%s\n"
      (Format.asprintf "%a" CShape.pp shape)
      (Model.name model) seed
      (match bound with None -> "" | Some b -> Printf.sprintf ", bound %d" b)
      (match shard with None -> "" | Some (k, n) -> Printf.sprintf ", shard %d/%d" k n);
    Printf.printf
      "programs: %d canonical (of %d raw), %d candidate executions enumerated\n"
      s.CAdmit.programs s.CAdmit.raw s.CAdmit.candidates;
    Printf.printf
      "admitted: %d (%d conformance, %d weak, %d interleaved, %d operator mutants); %d \
       rejected, %d duplicates\n"
      s.CAdmit.admitted s.CAdmit.conformance s.CAdmit.weak s.CAdmit.interleaved
      s.CAdmit.operator_mutants s.CAdmit.rejected s.CAdmit.duplicates;
    if s.CAdmit.uncertified > 0 || s.CAdmit.disagreements > 0 then begin
      Printf.eprintf "mcmutants: admission failed: %d uncertified, %d engine disagreement(s)\n"
        s.CAdmit.uncertified s.CAdmit.disagreements;
      exit 1
    end;
    if cross_check then print_endline "cross-check: both oracle engines agree on every verdict";
    writing "--out" (fun () -> Corpus.save ~path:out corpus);
    Printf.printf "corpus key: %s\nwrote %s\n" (CKey.to_hex (Corpus.key corpus)) out;
    Printf.eprintf "wall time: %.3f s (%.0f candidates/s)\n" wall
      (if wall > 0. then float_of_int s.CAdmit.candidates /. wall else 0.)
  in
  let shape_t =
    let spec =
      let doc =
        "Shape budget THREADSxEVENTSxLOCS (e.g. $(b,2x4x2)): maximum threads, total \
         instructions and distinct locations to enumerate."
      in
      Arg.(value & opt string "2x4x2" & info [ "shape" ] ~docv:"KxExL" ~doc)
    in
    let rmw = Arg.(value & flag & info [ "rmw" ] ~doc:"Admit read-modify-writes into the alphabet.") in
    let fence = Arg.(value & flag & info [ "fence" ] ~doc:"Admit fences into the alphabet.") in
    let wg_fence =
      Arg.(
        value & flag
        & info [ "wg-fence" ]
            ~doc:
              "Admit workgroup-scope fences into the alphabet (implies nothing about \
               $(b,--fence): the two scopes are independent symbols).")
    in
    let make spec rmw fence wg_fence =
      Result.map_error (fun e -> "--shape: " ^ e) (CShape.of_spec ~rmw ~fence ~wg_fence spec)
    in
    checked Term.(const make $ spec $ rmw $ fence $ wg_fence)
  in
  let model_t =
    validated [ "model" ] Arg.string "sc-per-loc"
      (one_of "model" Model.of_string (List.map Model.name Model.all))
      ~docv:"MODEL" ~doc:"Memory consistency model to certify against: sc, sc-per-loc or relacq."
  in
  let bound_t =
    let check = function
      | None -> Ok None
      | Some s -> (
          match int_of_string_opt s with
          | Some n when n > 0 -> Ok (Some n)
          | _ -> Error (Printf.sprintf "expected a positive integer, got %S" s))
    in
    validated [ "bound" ] Arg.(some string) None check ~docv:"N"
      ~doc:
        "Cap the canonical programs fed to the oracle; beyond it a $(b,--seed)-driven uniform \
         sample is taken."
  in
  let ops_t =
    let op = one_of "operator" Mutator.op_of_string (List.map Mutator.op_name Mutator.all_ops @ [ "none" ]) in
    let check s =
      if String.lowercase_ascii s = "none" then Ok []
      else
        List.fold_left
          (fun acc name -> Result.bind acc (fun ops -> Result.map (fun o -> o :: ops) (op name)))
          (Ok []) (String.split_on_char ',' s)
        |> Result.map List.rev
    in
    validated [ "ops" ] Arg.string "sdl,ror,uoi,fsn" check ~docv:"OPS"
      ~doc:
        "Comma-separated mutation operators applied to the paper suite's conformance tests \
         (sdl, ror, uoi, fsn), or $(b,none)."
  in
  let cross_check_arg =
    Arg.(
      value & flag
      & info [ "cross-check" ]
          ~doc:
            "Re-run every admission under the second oracle engine and fail on any verdict \
             difference.")
  in
  let shard_t =
    let check = function
      | None -> Ok None
      | Some s -> (
          match List.map int_of_string_opt (String.split_on_char '/' s) with
          | [ Some k; Some n ] when n > 0 && 0 <= k && k < n -> Ok (Some (k, n))
          | _ -> Error (Printf.sprintf "expected I/N with 0 <= I < N (e.g. 0/4), got %S" s))
    in
    validated [ "shard" ] Arg.(some string) None check ~docv:"I/N"
      ~doc:
        "Generate only shard $(i,I) of $(i,N) (e.g. $(b,0/4)): a deterministic, disjoint, \
         union-complete slice of candidate enumeration, so large shapes fan out across \
         processes. Each shard does 1/N of the oracle work; the shard is recorded in the corpus \
         meta and its content key."
  in
  let out_arg =
    Arg.(value & opt string "corpus.json" & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:
         "Enumerate, derive and oracle-certify a litmus corpus (deterministic in its \
          configuration; the output is byte-reproducible)")
    Term.(
      const run $ shape_t $ model_t $ bound_t $ seed_arg $ ops_t $ oracle_engine_t
      $ cross_check_arg $ shard_t $ jobs_t $ out_arg)

let corpus_list_cmd =
  let run path =
    let corpus = load_corpus path in
    let t =
      Table.create
        ~aligns:[ Table.Left; Table.Left; Table.Left; Table.Left; Table.Left ]
        [ "Name"; "Polarity"; "Model"; "Origin"; "Skeleton" ]
    in
    List.iter
      (fun (e : CAdmit.entry) ->
        Table.add_row t
          [
            e.CAdmit.test.Litmus.name;
            CAdmit.polarity_name e.CAdmit.polarity;
            Model.name e.CAdmit.test.Litmus.model;
            (match (e.CAdmit.parent, e.CAdmit.op) with
            | Some p, Some op -> op ^ " of " ^ p
            | _ -> "generated");
            e.CAdmit.skeleton;
          ])
      corpus.Corpus.entries;
    Table.print t;
    let s = corpus.Corpus.stats in
    Printf.printf
      "\n%d entries (%d conformance, %d weak, %d interleaved, %d operator mutants)\ncorpus key: \
       %s\n"
      s.CAdmit.admitted s.CAdmit.conformance s.CAdmit.weak s.CAdmit.interleaved
      s.CAdmit.operator_mutants
      (CKey.to_hex (Corpus.key corpus))
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List a corpus file's entries and its content key")
    Term.(const run $ corpus_arg)

let corpus_certify_cmd =
  let run path jobs =
    let corpus = load_corpus path in
    let rechecks = Corpus.recertify ~domains:jobs corpus in
    let bad =
      List.filter
        (fun (r : Corpus.recheck) -> not (r.Corpus.engines_agree && r.Corpus.matches_stored))
        rechecks
    in
    List.iter
      (fun (r : Corpus.recheck) -> Printf.printf "FAIL %s: %s\n" r.Corpus.name r.Corpus.detail)
      bad;
    Printf.printf
      "corpus certify: %d entr%s re-proved under both oracle engines, %d divergence(s)\n"
      (List.length rechecks)
      (if List.length rechecks = 1 then "y" else "ies")
      (List.length bad);
    if bad <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Re-certify every entry of a corpus under both oracle engines and fail on any \
          disagreement or drift from the stored certificates")
    Term.(const run $ corpus_arg $ jobs_t)

let corpus_run_cmd =
  let run path cell exec =
    let corpus = load_corpus path in
    let device = Device.make cell.profile in
    let entries = Array.of_list corpus.Corpus.entries in
    let n = Array.length entries in
    Printf.printf "corpus: %d entries (key %s)\ndevice: %s\nenvironment: %s\n" n
      (CKey.to_hex (Corpus.key corpus))
      (Device.name device)
      (Format.asprintf "%a" Params.pp cell.env);
    let request i = cell_request cell ~device ~test:entries.(i).CAdmit.test in
    let t0 = Unix.gettimeofday () in
    let results = with_ctx exec (fun ctx -> HGrid.run ctx (HGrid.make Runner.Rate ~n ~request)) in
    let wall = Unix.gettimeofday () -. t0 in
    let t =
      Table.create
        ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right ]
        [ "Name"; "Polarity"; "Kills"; "Instances"; "Rate (/s)" ]
    in
    let kills = ref 0 in
    Array.iteri
      (fun i (r : Runner.result) ->
        kills := !kills + r.Runner.kills;
        Table.add_row t
          [
            entries.(i).CAdmit.test.Litmus.name;
            CAdmit.polarity_name entries.(i).CAdmit.polarity;
            string_of_int r.Runner.kills;
            string_of_int r.Runner.instances;
            Table.rate_cell r.Runner.rate;
          ])
      results;
    Table.print t;
    Printf.printf "\n%d cell(s), %d target observation(s) in total\n" n !kills;
    Printf.eprintf "wall time: %.3f s\n" wall
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run every test of a corpus through the campaign pipeline (store-cacheable: cells \
          are content-addressed like any other campaign cell)")
    Term.(const run $ corpus_arg $ cell_t $ exec_t)

let corpus_cmd =
  Cmd.group
    (Cmd.info "corpus"
       ~doc:
         "Generated litmus corpus: template-driven synthesis with oracle-certified admission")
    [ corpus_generate_cmd; corpus_certify_cmd; corpus_list_cmd; corpus_run_cmd ]

(* ------------------------------------------------------------------ *)
(* version: binary + campaign key code version                          *)

(* 1.3.0: first-class memory scopes (key v2, kernel v3, corpus gen2). *)
let binary_version = "1.3.0"

let version_cmd =
  let run json =
    if json then
      print_endline
        (Mcm_util.Jsonw.to_string
           (Mcm_util.Jsonw.Obj
              [
                ("version", Mcm_util.Jsonw.String binary_version);
                ("keyCodeVersion", Mcm_util.Jsonw.String CKey.code_version);
                ("kernelCodeVersion", Mcm_util.Jsonw.Int Mcm_gpu.Kernel.code_version);
                ("corpusVersion", Mcm_util.Jsonw.String Mcm_corpus.Version.version);
                ("protocol", Mcm_util.Jsonw.Int Proto.protocol_version);
                ( "engines",
                  Mcm_util.Jsonw.List
                    (List.map (fun (n, _) -> Mcm_util.Jsonw.String n) Request.engines) );
              ]))
    else begin
      Printf.printf "mcmutants %s\n" binary_version;
      Printf.printf "campaign key code version: %s\n" CKey.code_version;
      Printf.printf "kernel code version: %d\n" Mcm_gpu.Kernel.code_version;
      Printf.printf "corpus generator version: %s\n" Mcm_corpus.Version.version;
      Printf.printf "serve protocol version: %d\n" Proto.protocol_version;
      Printf.printf "engines: %s\n" (String.concat ", " (List.map fst Request.engines))
    end
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print versions as JSON (includes the serve protocol version, so clients can \
             handshake-check a daemon).")
  in
  Cmd.v
    (Cmd.info "version"
       ~doc:
         "Print the binary version, the campaign store's key code version (a code-version \
          bump is why a store goes cold after an upgrade) and the serve protocol version")
    Term.(const run $ json)

let main =
  let doc = "MC Mutants: mutation testing for memory consistency specifications (ASPLOS '23)" in
  Cmd.group (Cmd.info "mcmutants" ~version:binary_version ~doc)
    [
      list_cmd; show_cmd; enumerate_cmd; run_cmd; parse_cmd; export_cmd; wgsl_cmd; table2_cmd; table3_cmd; fig5_cmd;
      fig6_cmd; table4_cmd; tune_cmd; analysis_cmd; cts_cmd; prune_cmd; emit_suite_cmd; models_cmd;
      oracle_cmd; cache_cmd; serve_cmd; submit_cmd; watch_cmd; report_cmd; admin_cmd;
      corpus_cmd; version_cmd;
    ]

let () = exit (Cmd.eval ~term_err:1 main)

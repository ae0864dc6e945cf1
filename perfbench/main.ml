(* The repository benchmark: three workloads, end-to-end metrics with
   tracing off, per-layer metrics from a separate traced run.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --list

   Metric names, units and workloads are read from BENCHMARK.json, so
   the file and the program cannot drift apart: a declared end-to-end
   metric the workload did not measure fails the run. The last line on
   stdout is the result: {"correct", "attempted", "failed", "metrics"};
   the full record (machine facts, seed, every metric with its unit) is
   also written to _perfbench/<workload>/result.json, spans of a traced
   run to _perfbench/<workload>/trace.jsonl. *)

module Jsonw = Mcm_util.Jsonw
module Jsonp = Mcm_util.Jsonp

let workloads =
  [
    ("corpus-e2e", Corpus_e2e.run);
    ("fig5-sweep", Fig5_sweep.run);
    ("serve-mixed", Serve_mixed.run);
  ]

(* What each end-to-end metric measures. Every workload reports all of
   them; a round is one shard (corpus-e2e), one sweep (fig5-sweep) or
   one pair of client grids plus their warm resubmission (serve-mixed). *)
let definitions =
  [
    ( "setup_s",
      "median set-up: Store.open_store + Corpus.load per round (corpus-e2e); Device.all_correct + \
       Suite.generate of the mutants per sweep (fig5-sweep); daemon spawn to first \
       Client.connect, 9 starts (serve-mixed)" );
    ("wall_s", "median round time, set-up excluded (fig5-sweep: the sweep)");
    ("cells_per_s", "median over cold grids of cells computed per second");
    ("instances_per_s", "median over cold grids of simulated instances per second");
    ( "generate_s",
      "median Corpus.generate with cross-check (corpus-e2e: the round's shard; serve-mixed: the \
       inline-source corpus); Suite.generate of the 32 mutants (fig5-sweep)" );
    ( "warm_rerun_s",
      "median resubmission of a finished grid: all store hits (corpus-e2e, serve-mixed); \
       recomputed, as there is no store (fig5-sweep, every 4th round)" );
    ( "grid_latency_p50_ms",
      "nearest-rank p50 of first-submission grid latency, submit to last result (corpus-e2e: the \
       cold grid; fig5-sweep: the sweep)" );
    ( "grid_latency_p90_ms",
      "nearest-rank p90 of the same, or the highest percentile with 10 samples beyond it \
       (result.json: latencyTailPercentile)" );
    ("peak_rss_mb", "VmHWM once 50 grids are in; serve-mixed adds the daemon's");
  ]

(* Which end-to-end metric each layer metric should move, on which
   workload, and where it should not move: the prediction a change to
   that layer is held to. *)
let layer_table =
  [
    ( "kernel.compile_s kernel.images_built kernel.image_reuse_ratio",
      "cells_per_s wall_s",
      "corpus-e2e",
      "fig5-sweep" );
    ( "runner.exec_s runner.instances_per_s runner.schema_reuses runner.workspace_reuses",
      "instances_per_s wall_s",
      "fig5-sweep",
      "-" );
    ( "store.add_s store.adds store.flush_s store.flushes store.bytes",
      "cells_per_s; grid_latency_p50_ms",
      "corpus-e2e; serve-mixed",
      "fig5-sweep" );
    ( "store.find_s store.finds store.hit_ratio runner.codec_s",
      "warm_rerun_s",
      "corpus-e2e; serve-mixed",
      "fig5-sweep" );
    ("key.request_key_s key.calls", "warm_rerun_s cells_per_s", "corpus-e2e", "fig5-sweep");
    ( "sched.plan_s sched.hits sched.misses sched.decode_failures",
      "warm_rerun_s",
      "corpus-e2e",
      "-" );
    ("grid.run_s grid.parallel_efficiency", "cells_per_s", "fig5-sweep", "-");
    ( "corpus.generate_s corpus.programs corpus.candidates corpus.admitted corpus.admit_ratio \
       oracle.recertify_s oracle.disagreements",
      "generate_s",
      "corpus-e2e; serve-mixed (its inline tests are generated)",
      "fig5-sweep" );
    ("litmus.parse_s", "setup_s; grid_latency_p50_ms", "corpus-e2e; serve-mixed", "fig5-sweep");
    ( "serve.connect_s serve.submit_s serve.computed serve.joined serve.warm_hits \
       serve.dedup_ratio",
      "grid_latency_p50_ms grid_latency_p90_ms",
      "serve-mixed",
      "corpus-e2e fig5-sweep" );
    ("trace.unattributed_s trace.overhead_ratio trace.spans", "- (the trace itself)", "-", "-");
  ]

type metric = { name : string; unit_ : string; better : string }

type spec = {
  workload_names : (string * string) list;
  end_to_end : metric list;
  per_layer : metric list;
}

let read_spec file =
  let str key j = Option.value ~default:"" (Option.bind (Jsonp.member key j) Jsonp.to_string_opt) in
  match Jsonp.parse_file file with
  | Error e -> Error (Printf.sprintf "%s: %s" file e)
  | Ok j ->
      let list key = Option.fold ~none:[] ~some:Jsonp.to_list (Jsonp.member key j) in
      let metric m = { name = str "name" m; unit_ = str "unit" m; better = str "better" m } in
      Ok
        {
          workload_names = List.map (fun w -> (str "name" w, str "why" w)) (list "workloads");
          end_to_end = List.map metric (list "end_to_end");
          per_layer = List.map metric (list "per_layer");
        }

let print_list spec =
  print_endline "workloads:";
  List.iter (fun (name, why) -> Printf.printf "  %-12s %s\n" name why) spec.workload_names;
  let show kind ms =
    Printf.printf "%s metrics:\n" kind;
    List.iter
      (fun m ->
        Printf.printf "  %-28s %-8s %-6s is better" m.name m.unit_ m.better;
        Option.iter (Printf.printf "  %s") (List.assoc_opt m.name definitions);
        print_newline ())
      ms
  in
  show "end-to-end (--trace 0)" spec.end_to_end;
  show "per-layer (--trace 1; _s metrics are per round)" spec.per_layer;
  print_endline "layer metric -> end-to-end metric it should move | on | should not move on:";
  List.iter
    (fun (layer, e2e, on, off) -> Printf.printf "  %s\n    -> %s | %s | %s\n" layer e2e on off)
    layer_table

let nproc () = int_of_string_opt (Probe.command_line ~default:"" "nproc")

let metric_json (m, v) =
  (m.name, Jsonw.Obj [ ("value", Jsonw.Float v); ("unit", Jsonw.String m.unit_) ])

(* The result line's fields: correctness, the operation counts and every
   declared metric. *)
let result_fields (c : Bench.ctx) values =
  [
    ("correct", Jsonw.Bool (Stats.correct c.tally));
    ("attempted", Jsonw.Int c.tally.Stats.attempted);
    ("failed", Jsonw.Int c.tally.Stats.failed);
    ("metrics", Jsonw.Obj (List.map metric_json values));
  ]

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let mcmutants = ref "_build/default/bin/mcmutants.exe" and spec_file = ref "BENCHMARK.json" in
  let smoke = ref false and list = ref false and max_domains = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
      ("--mcmutants", Arg.Set_string mcmutants, "PATH the built mcmutants binary");
      ("--spec", Arg.Set_string spec_file, "FILE the benchmark declaration (BENCHMARK.json)");
      ("--domains", Arg.Set_int max_domains, "N at most N worker domains and daemon connections");
      ("--smoke", Arg.Set smoke, " two rounds (a functional check)");
      ("--list", Arg.Set list, " print every workload and metric with its unit, then exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let spec =
    match read_spec !spec_file with
    | Ok s -> s
    | Error e ->
        prerr_endline e;
        exit 2
  in
  if !list then begin
    print_list spec;
    exit 0
  end;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run when List.mem_assoc !workload spec.workload_names -> run
    | _ ->
        Printf.eprintf "perfbench: unknown workload %S\n" !workload;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace must be 0 or 1";
    exit 2
  end;
  let traced = !trace = 1 in
  let recommended = Domain.recommended_domain_count () in
  let nproc = nproc () in
  let domains = max 1 (min recommended (Option.value ~default:recommended nproc)) in
  let domains = if !max_domains > 0 then min domains !max_domains else domains in
  let dir = Filename.concat "_perfbench" !workload in
  if not (Sys.file_exists "_perfbench") then Unix.mkdir "_perfbench" 0o755;
  Probe.fresh_dir dir;
  let c =
    {
      Bench.seed = !seed;
      seconds = float_of_int !seconds;
      trace = traced;
      smoke = !smoke;
      domains;
      dir;
      mcmutants = !mcmutants;
      tally = Stats.tally ();
      spans = Span.create ~enabled:traced;
      metrics = Hashtbl.create 64;
    }
  in
  (try run c with e -> Stats.check c.tally false ("workload raised " ^ Printexc.to_string e));
  (* Per-layer metrics of a layer the workload never calls are 0; an
     end-to-end metric must always be measured. *)
  let value m =
    match Hashtbl.find_opt c.metrics m.name with
    | Some v when Float.is_finite v -> v
    | Some _ | None ->
        if not traced then Stats.check c.tally false ("end-to-end metric not measured: " ^ m.name);
        0.
  in
  let values =
    List.map (fun m -> (m, value m)) (if traced then spec.per_layer else spec.end_to_end)
  in
  let failures = List.rev c.tally.Stats.first_failures in
  (* Only the checkout's own history: without a .git here, git would
     search the parent directories for some other repository. *)
  let commit =
    if Sys.file_exists ".git" then Probe.command_line ~default:"unknown" "git rev-parse HEAD"
    else "unknown"
  in
  let record =
    [
      ("workload", Jsonw.String !workload);
      ("seed", Jsonw.Int !seed);
      ("seconds", Jsonw.Int !seconds);
      ("trace", Jsonw.Bool traced);
      ("smoke", Jsonw.Bool !smoke);
      ("commit", Jsonw.String commit);
      ("nproc", match nproc with Some n -> Jsonw.Int n | None -> Jsonw.Null);
      ("recommendedDomainCount", Jsonw.Int recommended);
      ("domains", Jsonw.Int domains);
      ("ocaml", Jsonw.String Sys.ocaml_version);
      ("rounds", Jsonw.Int (int_of_float (Bench.get c "rounds")));
      ("latencySamples", Jsonw.Int (int_of_float (Bench.get c "latency.samples")));
      ("latencyTailPercentile", Jsonw.Float (Bench.get c "latency.tail_percentile"));
      ("failedRatio", Jsonw.Float (Stats.failed_ratio c.tally));
      ("failures", Jsonw.List (List.map (fun s -> Jsonw.String s) failures));
    ]
    @ result_fields c values
  in
  let oc = open_out (Filename.concat dir "result.json") in
  Jsonw.to_channel oc (Jsonw.Obj record);
  output_char oc '\n';
  close_out oc;
  List.iter (fun (m, v) -> Printf.eprintf "  %-28s %14.6g %s\n" m.name v m.unit_) values;
  Printf.eprintf "  %-28s %14.6g (%d failed of %d attempted)\n" "failed_ratio"
    (Stats.failed_ratio c.tally) c.tally.Stats.failed c.tally.Stats.attempted;
  List.iter (Printf.eprintf "perfbench: FAILED: %s\n") failures;
  print_endline (Jsonw.to_string (Jsonw.Obj (result_fields c values)));
  exit (if Stats.correct c.tally then 0 else 1)

(* Two timing benches whose contracts do not hold yet on a 2-core
   host, so their gates stay until they do: the unified pipeline's
   dispatch overhead against direct dispatch
   (MCM_BENCH_PART=pipeline, BENCH_pipeline.json) and the campaign
   daemon against the direct store path (MCM_BENCH_PART=serve,
   BENCH_serve.json). With MCM_BENCH_PART unset both run.
   MCM_BENCH_SMOKE=1 shrinks each to a CI-speed run that asserts only
   the bit-identity and functional contracts. The repository's timing
   harness is perfbench/. *)

module Suite = Mcm_core.Suite
module Profile = Mcm_gpu.Profile
module Device = Mcm_gpu.Device
module Params = Mcm_testenv.Params
module Runner = Mcm_testenv.Runner
module Request = Mcm_testenv.Request
module Grid = Mcm_harness.Grid
module Prng = Mcm_util.Prng
module Pool = Mcm_util.Pool
module Jsonw = Mcm_util.Jsonw
module Store = Mcm_campaign.Store

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ------------------------------------------------------------------ *)
(* The unified-pipeline dispatch benchmark                              *)

(* The request -> plan -> execute pipeline (Request / Runner.exec / Grid
   / Sched) replaced hand-rolled dispatch at every call site. This part
   holds it to its contract: dispatching a grid of campaigns through the
   pipeline costs at most 3% over dispatching the same campaigns
   directly — Runner.run_campaign plus a hand-rolled find/compute/add
   store loop, exactly what call sites did before — with bit-identical
   results in all three regimes: no store, cold store, warm store.

   Timings are min-of-reps; the warm comparison times a batch of sweeps
   per rep because a fully cached sweep is microseconds per cell. The
   overhead assertion only runs in non-smoke mode (one rep over a tiny
   grid measures timer noise, not dispatch cost); bit-identity is
   asserted always. Results land in BENCH_pipeline.json. *)

let pipeline_bench ~smoke () =
  section "Unified pipeline: request -> plan -> execute dispatch overhead";
  let devices = [ Device.make Profile.nvidia; Device.make Profile.intel ] in
  let tests =
    List.filter_map
      (fun name -> Option.map (fun (e : Suite.entry) -> e.Suite.test) (Suite.find name))
      [ "MP-CO-m"; "CoRR-m"; "MP-relacq-m3" ]
  in
  let base = Params.scaled Params.pte_baseline 0.02 in
  let envs =
    List.init
      (if smoke then 2 else 10)
      (fun i -> { base with Params.testing_workgroups = 2 + (2 * i) })
  in
  let iterations = if smoke then 1 else 20 in
  let seed = 20230325 in
  let cells =
    Array.of_list
      (List.concat_map
         (fun device ->
           List.concat_map (fun test -> List.map (fun env -> (device, env, test)) envs) tests)
         devices)
  in
  let n = Array.length cells in
  let cell_seed i = Prng.mix seed i in
  Printf.printf "  grid of %d campaign cells (%d iterations per cell)\n%!" n iterations;
  (* Direct dispatch: the raw engine and a hand-rolled store loop. *)
  let direct_nostore () =
    Array.mapi
      (fun i (device, env, test) ->
        fst
          (Runner.run_campaign ~classify:None ~device ~env ~test ~iterations ~seed:(cell_seed i)
             ()))
      cells
  in
  let direct_store store =
    Array.mapi
      (fun i (device, env, test) ->
        let seed = cell_seed i in
        let key = Request.key ~kind:"run" (Request.make ~device ~env ~test ~iterations ~seed ()) in
        let computed () =
          fst (Runner.run_campaign ~classify:None ~device ~env ~test ~iterations ~seed ())
        in
        match Store.find store key with
        | Some payload -> (
            match Runner.decode Runner.Rate payload with Ok r -> r | Error _ -> computed ())
        | None ->
            let r = computed () in
            Store.add store key (Runner.encode Runner.Rate r);
            r)
      cells
  in
  (* Unified dispatch: the same grid through the pipeline. *)
  let request i =
    let device, env, test = cells.(i) in
    Request.make ~device ~env ~test ~iterations ~seed:(cell_seed i) ()
  in
  let grid = Grid.make Runner.Rate ~n ~request in
  let unified_nostore () = Grid.run Request.serial grid in
  let unified_store store = Grid.run (Request.context ~store ()) grid in
  (* min-of-reps timing; [prepare] runs outside the timed region. *)
  let time_min ~reps ?(prepare = fun () -> ()) f =
    let best = ref infinity in
    let out = ref None in
    for _ = 1 to reps do
      prepare ();
      let r, t = wall f in
      if t < !best then best := t;
      out := Some r
    done;
    (Option.get !out, !best)
  in
  (* Warm sweeps are too fast for one-shot timing: time [inner] sweeps
     back to back and report per-sweep seconds. *)
  let time_min_batch ~reps ~inner f =
    let best = ref infinity in
    let out = ref None in
    for _ = 1 to reps do
      let (), t = wall (fun () -> for _ = 1 to inner do out := Some (f ()) done) in
      let per = t /. float_of_int inner in
      if per < !best then best := per
    done;
    (Option.get !out, !best)
  in
  let reps = if smoke then 1 else 3 in
  let warm_reps = if smoke then 1 else 5 in
  let warm_inner = if smoke then 2 else 20 in
  let root =
    match Sys.getenv_opt "MCM_BENCH_PIPELINE_DIR" with
    | Some p when p <> "" -> p
    | _ -> "_bench_pipeline"
  in
  rm_rf root;
  let direct_dir = Filename.concat root "direct" in
  let unified_dir = Filename.concat root "unified" in
  let overhead direct_s unified_s =
    if direct_s > 0. then (unified_s -. direct_s) /. direct_s else 0.
  in
  let report label direct_s unified_s identical =
    Printf.printf "  %-9s direct %8.4f s   unified %8.4f s   overhead %+6.2f%%%s\n%!" label
      direct_s unified_s
      (100. *. overhead direct_s unified_s)
      (if identical then "   (bit-identical)" else "   RESULTS DIVERGED")
  in
  (* 1. No store: pure dispatch over the raw engine. *)
  let d_ns, d_ns_s = time_min ~reps direct_nostore in
  let u_ns, u_ns_s = time_min ~reps unified_nostore in
  let ns_identical = u_ns = d_ns in
  report "no store" d_ns_s u_ns_s ns_identical;
  (* 2. Cold store: every cell computed and persisted. *)
  let d_cold, d_cold_s =
    time_min ~reps
      ~prepare:(fun () -> rm_rf direct_dir)
      (fun () -> Store.with_store direct_dir (fun s -> direct_store s))
  in
  let u_cold, u_cold_s =
    time_min ~reps
      ~prepare:(fun () -> rm_rf unified_dir)
      (fun () -> Store.with_store unified_dir (fun s -> unified_store s))
  in
  let cold_identical = d_cold = d_ns && u_cold = d_ns in
  report "cold" d_cold_s u_cold_s cold_identical;
  (* 3. Warm store: every cell served from the stores the cold reps
     left behind (store open + key + find + decode per cell). *)
  let d_warm, d_warm_s =
    time_min_batch ~reps:warm_reps ~inner:warm_inner (fun () ->
        Store.with_store direct_dir (fun s -> direct_store s))
  in
  let u_warm, u_warm_s =
    time_min_batch ~reps:warm_reps ~inner:warm_inner (fun () ->
        Store.with_store unified_dir (fun s -> unified_store s))
  in
  let warm_identical = d_warm = d_ns && u_warm = d_ns in
  report "warm" d_warm_s u_warm_s warm_identical;
  let identical = ns_identical && cold_identical && warm_identical in
  let mode direct_s unified_s =
    Jsonw.Obj
      [
        ("direct_s", Jsonw.Float direct_s);
        ("unified_s", Jsonw.Float unified_s);
        ("overhead", Jsonw.Float (overhead direct_s unified_s));
      ]
  in
  let json =
    Jsonw.Obj
      [
        ("benchmark", Jsonw.String "unified-pipeline-dispatch");
        ("smoke", Jsonw.Bool smoke);
        ("cores", Jsonw.Int (Pool.default_domains ()));
        ("grid_points", Jsonw.Int n);
        ("iterations", Jsonw.Int iterations);
        ("overhead_budget", Jsonw.Float 0.03);
        ("no_store", mode d_ns_s u_ns_s);
        ("cold", mode d_cold_s u_cold_s);
        ("warm", mode d_warm_s u_warm_s);
        ("identical_to_direct", Jsonw.Bool identical);
      ]
  in
  let path =
    match Sys.getenv_opt "MCM_BENCH_PIPELINE_OUT" with
    | Some p when p <> "" -> p
    | _ -> "BENCH_pipeline.json"
  in
  let oc = open_out path in
  Jsonw.to_channel oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n%!" path;
  if not identical then begin
    prerr_endline "bench: unified pipeline diverged from direct dispatch";
    exit 1
  end;
  if not smoke then begin
    let check label direct_s unified_s =
      let o = overhead direct_s unified_s in
      if o > 0.03 then begin
        Printf.eprintf "bench: unified pipeline %s overhead %.2f%% exceeds the 3%% contract\n"
          label (100. *. o);
        exit 1
      end
    in
    check "cold" d_cold_s u_cold_s;
    check "warm" d_warm_s u_warm_s
  end

(* ------------------------------------------------------------------ *)
(* The campaign-service benchmark                                       *)

(* Three contracts for `mcmutants serve`, recorded in BENCH_serve.json:

   1. Throughput: two clients splitting a cold grid between them over
      the daemon's socket must aggregate to at least 95% of the
      single-client direct store path (Grid.run with a store) — the
      protocol, fsync-per-cell and scheduling may cost at most 5%.
   2. Dedup: two clients submitting the SAME cold grid concurrently
      cause each distinct cell to execute exactly once.
   3. Warm latency: a fully cached grid answers in under 10 ms per cell
      including the socket round-trip.

   Timing contracts are asserted in non-smoke runs; the functional
   contracts (dedup counts, warm hits) are asserted always. *)

module Proto = Mcm_serve.Proto
module Server = Mcm_serve.Server
module Client = Mcm_serve.Client

let serve_bench ~smoke () =
  section "Campaign service: multi-client daemon vs direct store path";
  let jobs = 2 in
  let devices = [ Device.make Profile.nvidia; Device.make Profile.intel ] in
  let test_names = [ "MP-CO-m"; "CoRR-m"; "MP-relacq-m3" ] in
  let tests =
    List.filter_map
      (fun name -> Option.map (fun (e : Suite.entry) -> e.Suite.test) (Suite.find name))
      test_names
  in
  let base = Params.scaled Params.pte_baseline 0.02 in
  let envs =
    List.init (if smoke then 2 else 4) (fun i -> { base with Params.testing_workgroups = 2 + (2 * i) })
  in
  let iterations = if smoke then 2 else 40 in
  let seed = 20230325 in
  let triples =
    Array.of_list
      (List.concat_map
         (fun device ->
           List.concat_map
             (fun (name, test) -> List.map (fun env -> (device, env, name, test)) envs)
             (List.combine test_names tests))
         devices)
  in
  let n = Array.length triples in
  Printf.printf "  grid of %d campaign cells (%d iterations per cell, %d worker domain(s))\n%!" n
    iterations jobs;
  let cell_seed i = Prng.mix seed i in
  let root =
    match Sys.getenv_opt "MCM_BENCH_SERVE_DIR" with
    | Some p when p <> "" -> p
    | _ -> "_bench_serve"
  in
  rm_rf root;
  Unix.mkdir root 0o755;
  (* 1a. The yardstick: the same cold grid through Grid.run + a store —
     what one client sweeping directly would do. It runs in a forked
     child because creating worker domains in this process would forbid
     the forks the daemon and client phases need (Unix.fork is
     single-domain-only on OCaml 5); the child is timed fork-to-exit,
     the same boundary the serve phase is timed over. *)
  let direct_dir = Filename.concat root "direct" in
  let (), direct_s =
    wall (fun () ->
        match Unix.fork () with
        | 0 ->
            let code =
              try
                let request i =
                  let device, env, _, test = triples.(i) in
                  Request.make ~device ~env ~test ~iterations ~seed:(cell_seed i) ()
                in
                let grid = Grid.make Runner.Rate ~n ~request in
                Store.with_store direct_dir (fun store ->
                    ignore (Grid.run (Request.context ~domains:jobs ~store ()) grid));
                0
              with _ -> 1
            in
            Unix._exit code
        | pid -> (
            match snd (Unix.waitpid [] pid) with
            | Unix.WEXITED 0 -> ()
            | _ ->
                prerr_endline "bench: direct sweep failed";
                exit 1))
  in
  Printf.printf "  direct store path       %8.3f s  (%5.1f cells/s)\n%!" direct_s
    (float_of_int n /. direct_s);
  (* The daemon, forked like the CLI would run it. *)
  let socket = Filename.concat root "serve.sock" in
  let store_dir = Filename.concat root "store" in
  let daemon =
    match Unix.fork () with
    | 0 ->
        let code =
          try
            let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
            Unix.dup2 devnull Unix.stderr;
            ignore
              (Server.run
                 { Server.store_dir; socket_path = socket; port = None; jobs; verbose = false });
            0
          with _ -> 1
        in
        Unix._exit code
    | pid -> pid
  in
  let connect name =
    match Client.connect ~name socket with
    | Ok c -> c
    | Error e ->
        prerr_endline ("bench: connect: " ^ e);
        exit 1
  in
  let mk_cell i =
    let _, env, name, _ = triples.(i) in
    let device, _, _, _ = triples.(i) in
    {
      Proto.c_test = Proto.Name name;
      c_device = String.lowercase_ascii device.Mcm_gpu.Device.profile.Profile.short_name;
      c_bugs = false;
      c_env = env;
      c_iterations = iterations;
      c_seed = cell_seed i;
      c_engine = Request.Kernel;
    }
  in
  let submit_indices client indices =
    match Client.submit ~kind:"run" client (List.map mk_cell indices) with
    | Ok g -> g
    | Error e ->
        prerr_endline ("bench: submit: " ^ e);
        exit 1
  in
  (* A report counter, read over an admin session. *)
  let report_total name =
    let c = connect "bench-report" in
    Client.send c Proto.Report;
    let rec next () =
      match Client.recv c with
      | Ok (Proto.Reply { op = "report"; data }) -> data
      | Ok _ -> next ()
      | Error e ->
          prerr_endline ("bench: report: " ^ e);
          exit 1
    in
    let data = next () in
    Client.close c;
    let module Jsonp = Mcm_util.Jsonp in
    Option.value ~default:(-1)
      (Option.bind (Option.bind (Jsonp.member "totals" data) (Jsonp.member name)) Jsonp.to_int)
  in
  (* 1b. Two clients split the cold grid: child processes so the
     submissions genuinely overlap; the parent times both from fork to
     the second exit. *)
  let halves =
    ( List.init n (fun i -> i) |> List.filter (fun i -> i mod 2 = 0),
      List.init n (fun i -> i) |> List.filter (fun i -> i mod 2 = 1) )
  in
  let fork_client name indices =
    match Unix.fork () with
    | 0 ->
        let code =
          try
            let c = connect name in
            let g = submit_indices c indices in
            Client.close c;
            if Array.length g.Client.cells = List.length indices then 0 else 1
          with _ -> 2
        in
        Unix._exit code
    | pid -> pid
  in
  let reap pid what =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> ()
    | _ ->
        Printf.eprintf "bench: %s client failed\n" what;
        exit 1
  in
  let (), serve_s =
    wall (fun () ->
        let a = fork_client "half-a" (fst halves) in
        let b = fork_client "half-b" (snd halves) in
        reap a "first";
        reap b "second")
  in
  let computed_cold = report_total "computed" in
  let serve_vs_direct = if serve_s > 0. then direct_s /. serve_s else 0. in
  Printf.printf "  serve, 2 clients, cold  %8.3f s  (%5.1f cells/s)  %.2fx of direct\n%!" serve_s
    (float_of_int n /. serve_s) serve_vs_direct;
  if computed_cold <> n then begin
    Printf.eprintf "bench: cold halves computed %d cells, expected %d\n" computed_cold n;
    exit 1
  end;
  (* 2. Dedup: both clients submit the SAME grid (fresh seeds, so every
     cell is cold) at the same time; the ledger must show each distinct
     cell computed exactly once. *)
  let dedup_seed = seed + 1 in
  let mk_dedup i = { (mk_cell i) with Proto.c_seed = Prng.mix dedup_seed i } in
  let dedup_indices = List.init (min n (if smoke then 4 else 8)) (fun i -> i) in
  let before = report_total "computed" in
  let fork_dedup name =
    match Unix.fork () with
    | 0 ->
        let code =
          try
            let c = connect name in
            match Client.submit ~kind:"run" c (List.map mk_dedup dedup_indices) with
            | Ok _ ->
                Client.close c;
                0
            | Error _ -> 1
          with _ -> 2
        in
        Unix._exit code
    | pid -> pid
  in
  let a = fork_dedup "dedup-a" in
  let b = fork_dedup "dedup-b" in
  reap a "dedup-a";
  reap b "dedup-b";
  let dedup_computed = report_total "computed" - before in
  let dedup_cells = List.length dedup_indices in
  Printf.printf "  dedup: 2 x %d identical cells -> %d computed\n%!" dedup_cells dedup_computed;
  (* 3. Warm latency: the full grid again, now entirely cached. *)
  let warm_client = connect "warm" in
  let warm, warm_s = wall (fun () -> submit_indices warm_client (List.init n (fun i -> i))) in
  Client.close warm_client;
  let warm_ms_per_cell = 1000. *. warm_s /. float_of_int n in
  Printf.printf "  warm grid               %8.3f s  (%.3f ms/cell, %d/%d hits)\n%!" warm_s
    warm_ms_per_cell warm.Client.hits warm.Client.total;
  (* Shut the daemon down cleanly and reap it. *)
  let c = connect "bench-shutdown" in
  Client.send c Proto.Shutdown;
  (match Client.recv c with Ok _ | Error _ -> ());
  Client.close c;
  (match snd (Unix.waitpid [] daemon) with
  | Unix.WEXITED 0 -> ()
  | _ ->
      prerr_endline "bench: daemon did not exit cleanly";
      exit 1);
  let json =
    Jsonw.Obj
      [
        ("benchmark", Jsonw.String "campaign-service");
        ("smoke", Jsonw.Bool smoke);
        ("cores", Jsonw.Int (Pool.default_domains ()));
        ("grid_points", Jsonw.Int n);
        ("iterations", Jsonw.Int iterations);
        ("direct_s", Jsonw.Float direct_s);
        ( "multi_client",
          Jsonw.Obj
            [
              ("clients", Jsonw.Int 2);
              ("seconds", Jsonw.Float serve_s);
              ("throughput_vs_direct", Jsonw.Float serve_vs_direct);
              ("throughput_floor", Jsonw.Float 0.95);
            ] );
        ( "dedup",
          Jsonw.Obj
            [
              ("submitted", Jsonw.Int (2 * dedup_cells));
              ("distinct", Jsonw.Int dedup_cells);
              ("computed", Jsonw.Int dedup_computed);
            ] );
        ( "warm",
          Jsonw.Obj
            [
              ("seconds", Jsonw.Float warm_s);
              ("ms_per_cell", Jsonw.Float warm_ms_per_cell);
              ("ms_per_cell_budget", Jsonw.Float 10.);
              ("hits", Jsonw.Int warm.Client.hits);
            ] );
      ]
  in
  let path =
    match Sys.getenv_opt "MCM_BENCH_SERVE_OUT" with
    | Some p when p <> "" -> p
    | _ -> "BENCH_serve.json"
  in
  let oc = open_out path in
  Jsonw.to_channel oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n%!" path;
  if dedup_computed <> dedup_cells then begin
    Printf.eprintf "bench: dedup broke — %d distinct cells but %d computed\n" dedup_cells
      dedup_computed;
    exit 1
  end;
  if warm.Client.hits <> n then begin
    Printf.eprintf "bench: warm grid expected %d hits, got %d\n" n warm.Client.hits;
    exit 1
  end;
  if not smoke then begin
    if serve_vs_direct < 0.95 then begin
      Printf.eprintf
        "bench: multi-client throughput %.2fx of the direct path is below the 0.95x contract\n"
        serve_vs_direct;
      exit 1
    end;
    if warm_ms_per_cell > 10. then begin
      Printf.eprintf "bench: warm-hit latency %.2f ms/cell exceeds the 10 ms contract\n"
        warm_ms_per_cell;
      exit 1
    end
  end

let () =
  let smoke =
    match Sys.getenv_opt "MCM_BENCH_SMOKE" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true
  in
  match Sys.getenv_opt "MCM_BENCH_PART" with
  | Some "pipeline" -> pipeline_bench ~smoke ()
  | Some "serve" -> serve_bench ~smoke ()
  | Some part ->
      Printf.eprintf "bench: unknown MCM_BENCH_PART %S (pipeline|serve)\n" part;
      exit 2
  | None ->
      pipeline_bench ~smoke ();
      serve_bench ~smoke ()

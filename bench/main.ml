(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation and times the code that produces them.

   Part 1 prints the reproductions (Tab. 2, Tab. 3, Fig. 5 a-h plus the
   cross-device aggregates of Fig. 5 i-j, Fig. 6, Tab. 4, and the
   Sec. 5.1 tuning-cost comparison) at the configured scale — set
   MCM_SCALE=1.0 MCM_ENVS=150 for the paper's full-size sweep.

   Part 2 times a serial vs parallel tuning sweep (the domain pool's
   speedup) and records it in BENCH_parallel.json; MCM_BENCH_SMOKE=1
   runs only this part at 1 iteration as a fast parallel-path check.

   Part 3 registers one Bechamel micro-benchmark per experiment (plus the
   DESIGN.md ablations) so the cost of each moving part is tracked. *)

module Suite = Mcm_core.Suite
module Merge = Mcm_core.Merge
module Litmus = Mcm_litmus.Litmus
module Enumerate = Mcm_litmus.Enumerate
module Library = Mcm_litmus.Library
module Profile = Mcm_gpu.Profile
module Device = Mcm_gpu.Device
module Gpu_instance = Mcm_gpu.Instance
module Bug = Mcm_gpu.Bug
module Params = Mcm_testenv.Params
module Runner = Mcm_testenv.Runner
module Request = Mcm_testenv.Request
module Tuning = Mcm_harness.Tuning
module Grid = Mcm_harness.Grid
module Experiments = Mcm_harness.Experiments
module Oracle_propagate = Mcm_oracle.Propagate
module Oracle_engine = Mcm_oracle.Engine
module Oracle_certify = Mcm_oracle.Certify
module Oracle_outcome = Mcm_oracle.Outcome
module Table = Mcm_util.Table
module Prng = Mcm_util.Prng
module Pool = Mcm_util.Pool
module Jsonw = Mcm_util.Jsonw
module Pearson = Mcm_stats.Pearson

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

(* One campaign cell through the pipeline, on one domain unless told. *)
let run_cell ?engine ?domains collect ~device ~env ~test ~iterations ~seed =
  Runner.exec collect
    (Request.make ?engine ~device ~env ~test ~iterations ~seed ())
    (Request.context ?domains ())

(* ------------------------------------------------------------------ *)
(* Part 1: the reproductions                                            *)

let print_reproductions () =
  section "Table 2: mutators and generated tests";
  Table.print (Experiments.table2 ());

  section "Table 3: simulated devices";
  Table.print (Experiments.table3 ());

  let config = Tuning.default_config () in
  Printf.printf
    "\ntuning sweep: %d envs/category, %d SITE iterations, %d PTE iterations, scale %.3f\n%!"
    config.Tuning.n_envs config.Tuning.site_iterations config.Tuning.pte_iterations
    config.Tuning.scale;
  let runs = Tuning.sweep config in

  List.iter
    (fun (title, t) ->
      section ("Figure 5 " ^ title);
      Table.print t)
    (Experiments.Fig5.all_tables runs);

  section "Figure 5 (i)/(j): cross-device aggregates";
  let agg = Table.create [ "Metric"; "SITE-baseline"; "SITE"; "PTE-baseline"; "PTE" ] in
  Table.add_row agg
    ("mutation score"
    :: List.map
         (fun c -> Table.pct_cell (Experiments.Fig5.mutation_score runs c))
         Tuning.all_categories);
  Table.add_row agg
    ("avg death rate (/s)"
    :: List.map
         (fun c -> Table.rate_cell (Experiments.Fig5.avg_death_rate runs c))
         Tuning.all_categories);
  Table.print agg;

  section "Sec. 5.1: simulated tuning cost per category";
  List.iter
    (fun (name, s) -> Printf.printf "  %-14s %12.2f simulated seconds\n" name s)
    (Experiments.Fig5.tuning_time runs);

  section "Figure 6: reproducible mutation score vs per-test time budget";
  Table.print (Experiments.Fig6.table runs);

  section "Table 4: correlation between mutant kills and injected bugs";
  Table.print (Experiments.Table4.table (Experiments.Table4.compute ()));

  section "Ablation: pairing permutation (Sec. 4.1)";
  (* The paper argues the coprime permutation beats the degenerate
     v -> v mapping; compare kill rates with everything else fixed. *)
  let device = Device.make Profile.nvidia in
  let mutant = (Option.get (Suite.find "MP-CO-m")).Suite.test in
  let base_env = Params.scaled Params.pte_baseline config.Tuning.scale in
  let abl = Table.create [ "Pairing"; "Kills"; "Rate (/s)" ] in
  List.iter
    (fun (label, p2) ->
      let env = { base_env with Params.permute_second = p2 } in
      let r = run_cell Runner.Rate ~device ~env ~test:mutant ~iterations:10 ~seed:4242 in
      Table.add_row abl [ label; string_of_int r.Runner.kills; Table.rate_cell r.Runner.rate ])
    [ ("identity (v -> v)", 1); ("coprime permutation", 1031) ];
  Table.print abl;

  section "Ablation: weak-memory mechanisms (DESIGN.md)";
  (* Disable each operational mechanism in turn and measure which mutants
     each one carries. *)
  let weak_full =
    Gpu_instance.effective_params Profile.nvidia
      ~amplification:(Runner.amplification device base_env ~roles:2)
  in
  let count_kills weak test =
    let g = Prng.create 99 in
    let kills = ref 0 in
    for _ = 1 to 3000 do
      let starts = [| Prng.float g 40.; Prng.float g 40. |] in
      let o = Gpu_instance.run ~prng:(Prng.split g) ~weak ~bugs:Bug.none ~test ~starts () in
      if test.Litmus.target o then incr kills
    done;
    !kills
  in
  let abl_pruning () =
    section "Sec. 3.4: pruning against implementation models";
    let t = Table.create [ "Implementation model"; "Mutants kept"; "Pruned" ] in
    List.iter
      (fun cat ->
        let verdict = Mcm_core.Prune.prune_suite ~implementation:cat () in
        Table.add_row t
          [
            cat.Mcm_memmodel.Cat.name;
            string_of_int (List.length verdict.Mcm_core.Prune.kept);
            string_of_int (List.length verdict.Mcm_core.Prune.pruned);
          ])
      Mcm_memmodel.Cat.all;
    Table.print t
  in
  abl_pruning ();

  let abl2 = Table.create [ "Mechanism configuration"; "CoRR-m"; "MP-CO-m"; "LB-CO-m" ] in
  let corr_m = (Option.get (Suite.find "CoRR-m")).Suite.test in
  let lb_m = (Option.get (Suite.find "LB-CO-m")).Suite.test in
  List.iter
    (fun (label, weak) ->
      Table.add_row abl2
        [
          label;
          string_of_int (count_kills weak corr_m);
          string_of_int (count_kills weak mutant);
          string_of_int (count_kills weak lb_m);
        ])
    [
      ("all mechanisms", weak_full);
      ("no store-visibility delay", { weak_full with Gpu_instance.vis_delay_mean_ns = 0. });
      ("no load staleness", { weak_full with Gpu_instance.p_stale = 0. });
      ("no out-of-order window", { weak_full with Gpu_instance.p_ooo = 0. });
      ( "interleaving only",
        { weak_full with Gpu_instance.vis_delay_mean_ns = 0.; p_stale = 0.; p_ooo = 0. } );
    ];
  Table.print abl2

(* ------------------------------------------------------------------ *)
(* Part 2: the domain-pool speedup benchmark                            *)

(* Serial vs parallel wall-clock over a tuning sweep — the PTE story one
   level up: pack the whole parameter grid into one multicore launch.
   Results are checked bit-identical across domain counts and the
   numbers land in a BENCH_*.json so the perf trajectory is tracked.
   MCM_BENCH_SMOKE=1 shrinks everything to one iteration: a CI-speed
   exercise of the parallel path, not a measurement. *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let parallel_bench ~smoke () =
  section "Domain pool: serial vs parallel tuning sweep";
  let config =
    {
      Tuning.n_envs = 3;
      (* 3 Site + 3 Pte + the two baselines = 8 environment grid rows *)
      site_iterations = (if smoke then 1 else 160);
      pte_iterations = (if smoke then 1 else 40);
      scale = 0.02;
      seed = 20230325;
    }
  in
  let devices = [ Device.make Profile.nvidia; Device.make Profile.intel ] in
  let tests =
    List.filter
      (fun (e : Suite.entry) ->
        List.mem e.Suite.test.Litmus.name [ "MP-CO-m"; "CoRR-m"; "MP-relacq-m3" ])
      (Suite.mutants ())
  in
  (* Project each run onto closure-free fields so sweeps can be compared
     with structural equality, floats included — the determinism claim is
     bit-identity, not approximate agreement. *)
  let fingerprint runs =
    List.map
      (fun (r : Tuning.run) -> (r.Tuning.category, r.Tuning.env_index, r.Tuning.test_name, r.Tuning.result))
      runs
  in
  let serial, serial_s = wall (fun () -> Tuning.sweep ~devices ~tests config) in
  let grid_points = List.length serial in
  Printf.printf "  sweep of %d grid points (%d SITE / %d PTE iterations per point)\n"
    grid_points config.Tuning.site_iterations config.Tuning.pte_iterations;
  Printf.printf "  serial                  %8.3f s\n%!" serial_s;
  let rows =
    List.map
      (fun d ->
        let runs, t =
          wall (fun () -> Tuning.sweep ~ctx:(Request.context ~domains:d ()) ~devices ~tests config)
        in
        let identical = fingerprint runs = fingerprint serial in
        let speedup = if t > 0. then serial_s /. t else 0. in
        Printf.printf "  %2d domains              %8.3f s   %5.2fx%s\n%!" d t speedup
          (if identical then "   (bit-identical)" else "   RESULTS DIVERGED");
        (d, t, speedup, identical))
      [ 1; 2; 4; 8 ]
  in
  let json =
    Jsonw.Obj
      [
        ("benchmark", Jsonw.String "domain-pool-sweep-speedup");
        ("smoke", Jsonw.Bool smoke);
        ("cores", Jsonw.Int (Pool.default_domains ()));
        ("grid_points", Jsonw.Int grid_points);
        ("site_iterations", Jsonw.Int config.Tuning.site_iterations);
        ("pte_iterations", Jsonw.Int config.Tuning.pte_iterations);
        ("serial_s", Jsonw.Float serial_s);
        ( "runs",
          Jsonw.List
            (List.map
               (fun (d, t, speedup, identical) ->
                 Jsonw.Obj
                   [
                     ("domains", Jsonw.Int d);
                     ("seconds", Jsonw.Float t);
                     ("speedup", Jsonw.Float speedup);
                     ("identical_to_serial", Jsonw.Bool identical);
                   ])
               rows) );
      ]
  in
  let path =
    match Sys.getenv_opt "MCM_BENCH_OUT" with Some p when p <> "" -> p | _ -> "BENCH_parallel.json"
  in
  let oc = open_out path in
  Jsonw.to_channel oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n%!" path;
  if List.exists (fun (_, _, _, identical) -> not identical) rows then begin
    prerr_endline "bench: parallel sweep diverged from the serial oracle";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part 2a: the compiled instance kernel benchmark                      *)

(* Three measurements for the compiled kernel path, recorded in
   BENCH_instance.json with the same identical-or-fail contract as the
   other benches:

   1. A standard campaign through both engines — wall-clock, minor-heap
      allocation, and bit-identity of the (result, histogram) pair. The
      kernel campaign, role assignment to tally, must allocate at most
      one minor word per instance (its per-iteration records and the
      interpreter's per-instance outcomes are outside this budget).
   2. A direct instance loop (no campaign scaffolding): interpreter vs
      kernel instances/sec, plus Gc.quick_stat minor-word deltas proving
      the kernel's steady-state path allocates zero words per instance.
   3. A pool chunking sweep: the same job at chunk 1 vs the derived
      default vs one-chunk-per-domain, bit-identity asserted.

   MCM_BENCH_SMOKE=1 shrinks the counts to a CI-speed functional pass.

   Build-profile caveat: dune's dev profile compiles with -opaque, which
   disables the cross-module inlining of Prng.Raw draws; each draw then
   returns a boxed float and the kernel's steady state allocates ~27
   words/instance. The zero-allocation contract is a release-profile
   property — `make bench-instance` builds with --profile release. *)

let instance_bench ~smoke () =
  section "Compiled kernel: interpreter vs kernel instance throughput";
  let device = Device.make Profile.nvidia in
  let test = (Option.get (Suite.find "MP-relacq-m3")).Suite.test in
  let env = Params.scaled Params.pte_baseline 0.02 in
  let seed = 20230325 in
  (* Four smoke iterations keep the per-campaign setup (the histogram
     classifier's table, the prefab) well inside the one-word budget. *)
  let iterations = if smoke then 4 else 40 in
  (* 1. Campaign through both engines. *)
  let campaign engine =
    Gc.full_major ();
    let mw0 = Gc.minor_words () in
    let out, secs =
      wall (fun () ->
          run_cell ~engine Runner.Histogram ~device ~env ~test ~iterations ~seed)
    in
    let minor = Gc.minor_words () -. mw0 in
    (out, secs, minor)
  in
  let ((ir, _) as interp), interp_s, interp_minor = campaign Runner.Interpreter in
  let kernel_out, kernel_s, kernel_minor = campaign Runner.Kernel in
  let identical = kernel_out = interp in
  let executed = ir.Runner.instances in
  let campaign_speedup = if kernel_s > 0. then interp_s /. kernel_s else 0. in
  let campaign_words = kernel_minor /. float_of_int (max 1 executed) in
  let campaign_alloc_ok = campaign_words <= 1. in
  Printf.printf "  campaign (%d iterations, %d instances)\n" iterations executed;
  Printf.printf "    interpreter engine    %8.3f s   %12.0f minor words\n%!" interp_s
    interp_minor;
  Printf.printf "    kernel engine         %8.3f s   %12.0f minor words   %5.2fx%s\n%!" kernel_s
    kernel_minor campaign_speedup
    (if identical then "   (bit-identical)" else "   RESULTS DIVERGED");
  Printf.printf "    kernel campaign       %8.3f words/instance%s\n%!" campaign_words
    (if campaign_alloc_ok then "   (<= 1)" else "   ALLOCATES");
  (* 2. Direct instance loop: the per-instance cost with the campaign
     scaffolding (starts generation, horizon skip) factored out. *)
  let bugs = Device.effect device in
  let roles = Litmus.nthreads test in
  let weak =
    Gpu_instance.effective_params Profile.nvidia
      ~amplification:(Runner.amplification device env ~roles)
  in
  let starts = Array.init roles (fun r -> 2. *. float_of_int r) in
  let runs = if smoke then 5_000 else 300_000 in
  let kernel = Mcm_gpu.Kernel.compile ~weak ~bugs ~test () in
  let ws = Mcm_gpu.Kernel.workspace kernel in
  Mcm_gpu.Kernel.set_parent ws (Prng.create seed);
  let loop_interp () =
    let g = Prng.create seed in
    for _ = 1 to runs do
      ignore (Gpu_instance.run ~prng:(Prng.split g) ~weak ~bugs ~test ~starts ())
    done
  in
  let loop_kernel () =
    for _ = 1 to runs do
      ignore (Mcm_gpu.Kernel.run_next kernel ws ~starts ~off:0)
    done
  in
  let measure loop =
    (* Warm-up installs any one-time state, then the measured region is
       pure steady state. [Gc.minor_words ()] is the precise allocation
       counter; [Gc.quick_stat]'s minor_words is only refreshed at minor
       collections in native code and can miss a whole batch. *)
    loop ();
    Gc.full_major ();
    let mw0 = Gc.minor_words () in
    let (), secs = wall loop in
    let minor = Gc.minor_words () -. mw0 in
    let rate = if secs > 0. then float_of_int runs /. secs else 0. in
    (secs, rate, minor, minor /. float_of_int runs)
  in
  (* One warm-up [runs] batch per engine keeps the comparison symmetric. *)
  let i_secs, i_rate, _i_minor, i_per = measure loop_interp in
  let k_secs, k_rate, k_minor, k_per = measure loop_kernel in
  let speedup = if k_secs > 0. then i_secs /. k_secs else 0. in
  (* The measured region allocates a handful of words outside the
     instance path itself (the Gc counter boxes); anything growing with
     [runs] is a real leak in the zero-allocation claim. *)
  let zero_alloc = k_minor < 256. in
  Printf.printf "  direct loop (%d instances per engine)\n" runs;
  Printf.printf "    interpreter           %8.3f s   %10.0f inst/s   %8.2f words/inst\n%!"
    i_secs i_rate i_per;
  Printf.printf "    kernel                %8.3f s   %10.0f inst/s   %8.2f words/inst   %5.2fx%s\n%!"
    k_secs k_rate k_per speedup
    (if zero_alloc then "   (zero-alloc)" else "   ALLOCATES");
  (* 3. Pool chunking: identical work, different lock granularity. *)
  let pool_domains = 2 in
  let chunk_runs, default_chunk =
    Pool.with_pool ~domains:pool_domains (fun p ->
        let n = if smoke then 8 else 64 in
        let per_task = if smoke then 50 else 2_000 in
        let f i =
          let g = Prng.create (Prng.mix seed i) in
          let acc = ref 0 in
          for _ = 1 to per_task do
            let o = Gpu_instance.run ~prng:(Prng.split g) ~weak ~bugs ~test ~starts () in
            acc := !acc + Hashtbl.hash o
          done;
          !acc
        in
        let serial = Array.init n f in
        let default_chunk = Pool.default_chunk p ~n in
        Printf.printf "  pool chunking at %d domains (default chunk %d)\n%!"
          pool_domains default_chunk;
        ( List.map
            (fun chunk ->
              let a, t = wall (fun () -> Pool.map_array ~chunk p ~n ~f) in
              let same = a = serial in
              Printf.printf "    chunk %-6d           %8.3f s%s\n%!" chunk t
                (if same then "   (bit-identical)" else "   RESULTS DIVERGED");
              (chunk, t, same))
            (List.sort_uniq compare
               [ 1; default_chunk; max 1 (n / pool_domains) ]),
          default_chunk ))
  in
  let stat = Gc.quick_stat () in
  Printf.printf
    "  gc: %.0f minor words, %.0f promoted, %d minor / %d major collections\n%!"
    stat.Gc.minor_words stat.Gc.promoted_words stat.Gc.minor_collections
    stat.Gc.major_collections;
  let all_identical =
    identical && List.for_all (fun (_, _, same) -> same) chunk_runs
  in
  let json =
    Jsonw.Obj
      [
        ("benchmark", Jsonw.String "compiled-instance-kernel");
        ("smoke", Jsonw.Bool smoke);
        ("cores", Jsonw.Int (Pool.default_domains ()));
        ( "campaign",
          Jsonw.Obj
            [
              ("iterations", Jsonw.Int iterations);
              ("instances", Jsonw.Int executed);
              ("interpreter_s", Jsonw.Float interp_s);
              ("kernel_s", Jsonw.Float kernel_s);
              ("interpreter_minor_words", Jsonw.Float interp_minor);
              ("kernel_minor_words", Jsonw.Float kernel_minor);
              ("speedup", Jsonw.Float campaign_speedup);
              ("identical_to_serial", Jsonw.Bool identical);
              ("kernel_minor_words_per_instance", Jsonw.Float campaign_words);
              ("campaign_alloc_ok", Jsonw.Bool campaign_alloc_ok);
            ] );
        ( "direct",
          Jsonw.Obj
            [
              ("instances", Jsonw.Int runs);
              ("interpreter_s", Jsonw.Float i_secs);
              ("kernel_s", Jsonw.Float k_secs);
              ("interpreter_instances_per_s", Jsonw.Float i_rate);
              ("kernel_instances_per_s", Jsonw.Float k_rate);
              ("interpreter_minor_words_per_instance", Jsonw.Float i_per);
              ("kernel_minor_words_per_instance", Jsonw.Float k_per);
              ("speedup", Jsonw.Float speedup);
              ("zero_alloc_steady_state", Jsonw.Bool zero_alloc);
            ] );
        ( "pool_chunking",
          Jsonw.Obj
            [
              ("domains", Jsonw.Int pool_domains);
              ("default_chunk", Jsonw.Int default_chunk);
              ( "runs",
                Jsonw.List
                  (List.map
                     (fun (chunk, t, same) ->
                       Jsonw.Obj
                         [
                           ("chunk", Jsonw.Int chunk);
                           ("seconds", Jsonw.Float t);
                           ("identical_to_serial", Jsonw.Bool same);
                         ])
                     chunk_runs) );
            ] );
        ( "gc",
          Jsonw.Obj
            [
              ("minor_words", Jsonw.Float stat.Gc.minor_words);
              ("promoted_words", Jsonw.Float stat.Gc.promoted_words);
              ("minor_collections", Jsonw.Int stat.Gc.minor_collections);
              ("major_collections", Jsonw.Int stat.Gc.major_collections);
            ] );
      ]
  in
  let path =
    match Sys.getenv_opt "MCM_BENCH_INSTANCE_OUT" with
    | Some p when p <> "" -> p
    | _ -> "BENCH_instance.json"
  in
  let oc = open_out path in
  Jsonw.to_channel oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n%!" path;
  if not all_identical then begin
    prerr_endline "bench: kernel engine diverged from the interpreter";
    exit 1
  end;
  if not zero_alloc then begin
    prerr_endline "bench: kernel steady state allocates on the minor heap";
    exit 1
  end;
  if not campaign_alloc_ok then begin
    Printf.eprintf "bench: kernel campaign allocates %.2f minor words per instance (budget 1)\n"
      campaign_words;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part 2b: the axiomatic-oracle benchmark                              *)

(* Numbers worth tracking for the oracle: raw enumeration throughput
   (candidate executions consistency-checked per second, on the biggest
   candidate spaces we ship), the domain-pool speedup of the grid
   enumeration that Certify/Soundness fan out, and the engine ladder —
   both engines counting the consistent executions of growing
   Library.ladder rungs, with exact agreement asserted and the
   propagate/enumerate speedup and asymptotic gap recorded, topped by a
   certification race on a rung the brute-force engine cannot finish
   within a 10x budget. Results land in BENCH_oracle.json; bit-identity
   across domain counts and engine agreement are asserted, not assumed.
   MCM_BENCH_SMOKE=1 shrinks the grid to the classic library and the
   ladder to its fast rungs. *)

let oracle_bench ~smoke () =
  section "Axiomatic oracle: enumeration throughput and grid speedup";
  let suite_tests = List.map (fun (e : Suite.entry) -> e.Suite.test) (Suite.all ()) in
  let all_tests = Library.all @ suite_tests in
  let throughput_tests =
    let ranked =
      List.sort (fun a b -> compare (Enumerate.count b) (Enumerate.count a)) all_tests
    in
    List.filteri (fun i _ -> i < 3) ranked
  in
  let throughput =
    List.map
      (fun t ->
        let total = Enumerate.count t in
        let consistent, secs =
          wall (fun () -> Enumerate.count_consistent t.Litmus.model t)
        in
        let rate = if secs > 0. then float_of_int total /. secs else 0. in
        Printf.printf "  %-18s %8d candidates  %7d consistent  %12.0f exec/s\n%!"
          t.Litmus.name total consistent rate;
        (t.Litmus.name, total, consistent, secs, rate))
      throughput_tests
  in
  let grid_tests = if smoke then Library.all else all_tests in
  let points = List.concat_map (fun t -> List.map (fun m -> (m, t)) Mcm_memmodel.Model.all) grid_tests in
  let serial, serial_s = wall (fun () -> Oracle_outcome.allowed_grid points) in
  Printf.printf "  allowed-set grid of %d (model, test) points\n" (List.length points);
  Printf.printf "  serial                  %8.3f s\n%!" serial_s;
  let rows =
    List.map
      (fun d ->
        let sets, t = wall (fun () -> Oracle_outcome.allowed_grid ~domains:d points) in
        let identical = List.for_all2 Oracle_outcome.equal sets serial in
        let speedup = if t > 0. then serial_s /. t else 0. in
        Printf.printf "  %2d domains              %8.3f s   %5.2fx%s\n%!" d t speedup
          (if identical then "   (bit-identical)" else "   RESULTS DIVERGED");
        (d, t, speedup, identical))
      (if smoke then [ 2; 4 ] else [ 2; 4; 8 ])
  in
  (* Engine ladder: both engines count the consistent executions of
     growing Library.ladder rungs. Agreement is exact-count equality —
     the engines claim bit-identical streams, so any rung mismatch is a
     correctness failure, not noise. The asymptotic gap is candidate
     space over decision-tree nodes the propagation engine actually
     visits. *)
  Printf.printf "  engine ladder (consistent-execution counts, both engines)\n%!";
  let ladder_rungs =
    List.map
      (fun (stores, loads) ->
        let t = Library.ladder ~stores ~loads in
        let space = Enumerate.count t in
        let st = Oracle_propagate.stats t.Litmus.model t in
        let pc, prop_s =
          wall (fun () -> Oracle_engine.count_consistent Oracle_engine.Propagate t.Litmus.model t)
        in
        let ec, enum_s =
          wall (fun () -> Oracle_engine.count_consistent Oracle_engine.Enumerate t.Litmus.model t)
        in
        let agree = pc = ec in
        let speedup = if prop_s > 0. then enum_s /. prop_s else 0. in
        let gap = float_of_int space /. float_of_int (max 1 st.Oracle_propagate.explored) in
        Printf.printf
          "  %-14s %9d candidates  %8d consistent  enum %7.3fs  prop %7.3fs  %6.1fx  gap %5.1fx%s\n%!"
          t.Litmus.name space pc enum_s prop_s speedup gap
          (if agree then "" else "  COUNTS DIVERGED");
        (t, stores, loads, space, st, pc, prop_s, ec, enum_s, speedup, gap, agree))
      (if smoke then [ (1, 1); (1, 2) ] else [ (1, 1); (1, 2); (2, 1) ])
  in
  (* Certification race on the top rung: the propagation engine certifies
     the mutant-style "target allowed, non-vacuous" claim to completion;
     the brute-force engine then gets a 10x wall-clock budget for the
     same witness search. On the full rung (4 threads, 16 instructions,
     2.25e8 candidates) it cannot finish — that asymptotic separation is
     the point of the second engine, so it is recorded here rather than
     asserted away. *)
  let race_stores, race_loads = if smoke then (2, 1) else (2, 2) in
  let race_test = Library.ladder ~stores:race_stores ~loads:race_loads in
  let race_space = Enumerate.count race_test in
  let verdict, prop_race_s =
    wall (fun () -> Oracle_certify.mutant ~engine:Oracle_engine.Propagate race_test)
  in
  let budget_s = 10. *. prop_race_s in
  let visited = ref 0 in
  let race_result, enum_race_s =
    let deadline = Unix.gettimeofday () +. budget_s in
    wall (fun () ->
        match
          Enumerate.iter race_test ~f:(fun x ->
              incr visited;
              if !visited land 8191 = 0 && Unix.gettimeofday () > deadline then raise Exit;
              if
                Mcm_memmodel.Model.consistent race_test.Litmus.model x
                && race_test.Litmus.target (Litmus.outcome_of_execution race_test x)
              then raise Stdlib.Not_found)
        with
        | () -> "exhausted"
        | exception Stdlib.Not_found -> "found"
        | exception Exit -> "timeout")
  in
  Printf.printf
    "  race %-11s propagate certified (ok=%b) in %.3fs; enumerate got %.3fs and %s after %d of \
     %d candidates (%.3fs)\n%!"
    race_test.Litmus.name verdict.Oracle_certify.ok prop_race_s budget_s race_result !visited
    race_space enum_race_s;
  let engines_agree =
    List.for_all (fun (_, _, _, _, _, _, _, _, _, _, _, agree) -> agree) ladder_rungs
    && verdict.Oracle_certify.ok
    (* an exhausted (not timed-out) enumeration that found no witness
       contradicts the propagation engine's certificate *)
    && race_result <> "exhausted"
  in
  let json =
    Jsonw.Obj
      [
        ("benchmark", Jsonw.String "axiomatic-oracle");
        ("smoke", Jsonw.Bool smoke);
        ("cores", Jsonw.Int (Pool.default_domains ()));
        ( "enumeration",
          Jsonw.List
            (List.map
               (fun (name, total, consistent, secs, rate) ->
                 Jsonw.Obj
                   [
                     ("test", Jsonw.String name);
                     ("candidates", Jsonw.Int total);
                     ("consistent", Jsonw.Int consistent);
                     ("seconds", Jsonw.Float secs);
                     ("executions_per_s", Jsonw.Float rate);
                   ])
               throughput) );
        ("grid_points", Jsonw.Int (List.length points));
        ("grid_serial_s", Jsonw.Float serial_s);
        ( "grid_runs",
          Jsonw.List
            (List.map
               (fun (d, t, speedup, identical) ->
                 Jsonw.Obj
                   [
                     ("domains", Jsonw.Int d);
                     ("seconds", Jsonw.Float t);
                     ("speedup", Jsonw.Float speedup);
                     ("identical_to_serial", Jsonw.Bool identical);
                   ])
               rows) );
        ( "engine_ladder",
          Jsonw.List
            (List.map
               (fun (t, stores, loads, space, st, pc, prop_s, ec, enum_s, speedup, gap, agree) ->
                 Jsonw.Obj
                   [
                     ("test", Jsonw.String t.Litmus.name);
                     ("stores", Jsonw.Int stores);
                     ("loads", Jsonw.Int loads);
                     ("candidates", Jsonw.Int space);
                     ("consistent_propagate", Jsonw.Int pc);
                     ("consistent_enumerate", Jsonw.Int ec);
                     ("propagate_s", Jsonw.Float prop_s);
                     ("enumerate_s", Jsonw.Float enum_s);
                     ("speedup", Jsonw.Float speedup);
                     ("explored", Jsonw.Int st.Oracle_propagate.explored);
                     ("pruned", Jsonw.Int st.Oracle_propagate.pruned);
                     ("asymptotic_gap", Jsonw.Float gap);
                     ("agree", Jsonw.Bool agree);
                   ])
               ladder_rungs) );
        ( "race",
          Jsonw.Obj
            [
              ("test", Jsonw.String race_test.Litmus.name);
              ("threads", Jsonw.Int (Array.length race_test.Litmus.threads));
              ( "instructions",
                Jsonw.Int
                  (Array.fold_left
                     (fun acc th -> acc + List.length th)
                     0 race_test.Litmus.threads) );
              ("candidates", Jsonw.Int race_space);
              ("propagate_certified_ok", Jsonw.Bool verdict.Oracle_certify.ok);
              ("propagate_s", Jsonw.Float prop_race_s);
              ("enumerate_budget_s", Jsonw.Float budget_s);
              ("enumerate_result", Jsonw.String race_result);
              ("enumerate_s", Jsonw.Float enum_race_s);
              ("enumerate_candidates_visited", Jsonw.Int !visited);
            ] );
        ("engines_agree", Jsonw.Bool engines_agree);
      ]
  in
  let path =
    match Sys.getenv_opt "MCM_BENCH_ORACLE_OUT" with
    | Some p when p <> "" -> p
    | _ -> "BENCH_oracle.json"
  in
  let oc = open_out path in
  Jsonw.to_channel oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n%!" path;
  if List.exists (fun (_, _, _, identical) -> not identical) rows then begin
    prerr_endline "bench: sharded oracle grid diverged from the serial enumeration";
    exit 1
  end;
  if not engines_agree then begin
    prerr_endline "bench: the propagation and brute-force oracle engines disagree";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part 2c: the campaign-store benchmark                                *)

(* Three contracts for the content-addressed store, recorded in
   BENCH_store.json:

   1. Correctness: a sweep through a store (cold or warm) is
      bit-identical to the same sweep without one.
   2. Speed: the warm rerun — every cell served from the store — must be
      at least 10x faster than the cold run (asserted in non-smoke runs;
      smoke runs are too small to measure meaningfully).
   3. Recovery: after a simulated crash (segment truncated mid-record,
      journal left with a torn tail), resuming the sweep repairs the
      store, recomputes only what was lost, and still reproduces the
      uncached sweep bit-identically, leaving a store that passes
      verification. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

module Store = Mcm_campaign.Store
module Journal = Mcm_campaign.Journal

let store_bench ~smoke () =
  section "Campaign store: cold vs warm sweep, crash recovery";
  let config =
    {
      Tuning.n_envs = 2;
      site_iterations = (if smoke then 2 else 160);
      pte_iterations = (if smoke then 1 else 40);
      scale = 0.02;
      seed = 20230325;
    }
  in
  let devices = [ Device.make Profile.nvidia; Device.make Profile.intel ] in
  let tests =
    List.filter
      (fun (e : Suite.entry) ->
        List.mem e.Suite.test.Litmus.name [ "MP-CO-m"; "CoRR-m"; "MP-relacq-m3" ])
      (Suite.mutants ())
  in
  let fingerprint runs =
    List.map
      (fun (r : Tuning.run) ->
        (r.Tuning.category, r.Tuning.env_index, r.Tuning.test_name, r.Tuning.result))
      runs
  in
  let root =
    match Sys.getenv_opt "MCM_BENCH_STORE_DIR" with
    | Some p when p <> "" -> p
    | _ -> "_bench_store"
  in
  rm_rf root;
  let stored_sweep dir =
    Store.with_store dir (fun store ->
        Journal.with_journal (Filename.concat dir "journal.jsonl") (fun journal ->
            Tuning.sweep
              ~ctx:(Request.context ~domains:2 ~store ~journal ())
              ~devices ~tests config))
  in
  (* 1+2. Baseline (no store), cold (fresh store), warm (same store). *)
  let baseline, baseline_s =
    wall (fun () -> Tuning.sweep ~ctx:(Request.context ~domains:2 ()) ~devices ~tests config)
  in
  let baseline_fp = fingerprint baseline in
  let grid_points = List.length baseline in
  Printf.printf "  sweep of %d grid points (%d SITE / %d PTE iterations per point)\n"
    grid_points config.Tuning.site_iterations config.Tuning.pte_iterations;
  Printf.printf "  no store                %8.3f s\n%!" baseline_s;
  let dir = Filename.concat root "sweep" in
  let cold, cold_s = wall (fun () -> stored_sweep dir) in
  let cold_identical = fingerprint cold = baseline_fp in
  Printf.printf "  cold (computes+stores)  %8.3f s%s\n%!" cold_s
    (if cold_identical then "   (bit-identical)" else "   RESULTS DIVERGED");
  let warm, warm_s = wall (fun () -> stored_sweep dir) in
  let warm_identical = fingerprint warm = baseline_fp in
  let warm_speedup = if warm_s > 0. then cold_s /. warm_s else 0. in
  Printf.printf "  warm (all cached)       %8.3f s   %5.1fx%s\n%!" warm_s warm_speedup
    (if warm_identical then "   (bit-identical)" else "   RESULTS DIVERGED");
  (* 3. Crash recovery: populate, corrupt like a SIGKILL would, resume. *)
  let rdir = Filename.concat root "recovery" in
  ignore (stored_sweep rdir);
  let segments =
    Sys.readdir rdir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".jsonl" && n <> "journal.jsonl")
    |> List.sort compare
  in
  let last_segment = Filename.concat rdir (List.nth segments (List.length segments - 1)) in
  let content = In_channel.with_open_bin last_segment In_channel.input_all in
  let len = String.length content in
  (* Cut inside a record: drop the tail quarter of the segment, nudging
     the cut off any line boundary so a torn tail is actually present. *)
  let cut =
    let c = max 1 (len * 3 / 4) in
    if content.[c - 1] = '\n' then min (len - 2) (c + 2) else c
  in
  Unix.truncate last_segment cut;
  let jpath = Filename.concat rdir "journal.jsonl" in
  let oc = open_out_gen [ Open_append; Open_wronly; Open_binary ] 0o644 jpath in
  output_string oc "{\"done\":";  (* a torn (newline-less) journal tail *)
  close_out oc;
  let lost =
    Store.with_store dir (fun reference ->
        Store.with_store rdir (fun damaged -> Store.count reference - Store.count damaged))
  in
  Printf.printf "  crash: segment truncated at byte %d/%d, %d cell(s) lost, journal torn\n%!"
    cut len lost;
  let resumed, resume_s = wall (fun () -> stored_sweep rdir) in
  let resumed_identical = fingerprint resumed = baseline_fp in
  let recovery_verify =
    match Store.verify rdir with Ok r -> Store.verify_ok r | Error _ -> false
  in
  Printf.printf "  resume (recomputes %d)  %8.3f s%s%s\n%!" lost resume_s
    (if resumed_identical then "   (bit-identical)" else "   RESULTS DIVERGED")
    (if recovery_verify then "   (store verifies clean)" else "   STORE STILL CORRUPT");
  let json =
    Jsonw.Obj
      [
        ("benchmark", Jsonw.String "campaign-store");
        ("smoke", Jsonw.Bool smoke);
        ("cores", Jsonw.Int (Pool.default_domains ()));
        ("grid_points", Jsonw.Int grid_points);
        ("baseline_s", Jsonw.Float baseline_s);
        ( "cold",
          Jsonw.Obj
            [
              ("seconds", Jsonw.Float cold_s);
              ("identical_to_serial", Jsonw.Bool cold_identical);
            ] );
        ( "warm",
          Jsonw.Obj
            [
              ("seconds", Jsonw.Float warm_s);
              ("speedup_vs_cold", Jsonw.Float warm_speedup);
              ("speedup_target", Jsonw.Float 10.);
              ("identical_to_serial", Jsonw.Bool warm_identical);
            ] );
        ( "recovery",
          Jsonw.Obj
            [
              ("cells_lost", Jsonw.Int lost);
              ("resume_seconds", Jsonw.Float resume_s);
              ("identical_to_serial", Jsonw.Bool resumed_identical);
              ("verifies_clean", Jsonw.Bool recovery_verify);
            ] );
      ]
  in
  let path =
    match Sys.getenv_opt "MCM_BENCH_STORE_OUT" with
    | Some p when p <> "" -> p
    | _ -> "BENCH_store.json"
  in
  let oc = open_out path in
  Jsonw.to_channel oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n%!" path;
  if not (cold_identical && warm_identical && resumed_identical) then begin
    prerr_endline "bench: stored sweep diverged from the uncached sweep";
    exit 1
  end;
  if not recovery_verify then begin
    prerr_endline "bench: store still corrupt after crash recovery";
    exit 1
  end;
  if (not smoke) && warm_speedup < 10. then begin
    Printf.eprintf "bench: warm store speedup %.1fx is below the 10x contract\n" warm_speedup;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part 2d: the unified-pipeline dispatch benchmark                     *)

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
(* Part 2e: the campaign-service benchmark                              *)

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

(* ------------------------------------------------------------------ *)
(* Part 2f: the mutant-schemata benchmark                               *)

(* The schema plan's contract, recorded in BENCH_schemata.json:

   1. Correctness: a full-matrix sweep under the schema plan (shared
      kernel images, prefab memoization, workspace arena, family-grouped
      dispatch) is bit-identical to the per-cell plan, which compiles
      every cell from scratch — the reference path. Asserted always;
      divergence exits non-zero.
   2. Speed: on a Table 4-shaped matrix in the compile-dominated regime
      (Single-mode environments run one instance per iteration, a seeds
      axis makes whole campaign prefixes recur), the schema plan must be
      at least 2x faster than per-cell compilation. Asserted in
      non-smoke runs; smoke grids are too small to time.

   Engine counters (images compiled, schema/prefab reuses, workspace
   reuses) are recorded for the schema run so the reuse the speedup
   claims actually happened is visible in the JSON. *)

let schemata_bench ~smoke () =
  section "Mutant schemata: per-cell compilation vs shared images";
  let seed = 20230325 in
  let iterations = 1 in
  let n_envs = if smoke then 2 else 4 in
  let n_seeds = if smoke then 2 else 32 in
  (* The three Table 4 case studies: (vendor, conformance test) columns
     of conf :: mutants, on the vendor's buggy device. *)
  let cases =
    List.map
      (fun (profile, conf_name, _) ->
        let device =
          match Bug.paper_bug profile with
          | Some bug -> Device.make ~bugs:[ bug ] profile
          | None -> Device.make profile
        in
        let conf = (Option.get (Suite.find conf_name)).Suite.test in
        let mutants = List.map (fun (e : Suite.entry) -> e.Suite.test) (Suite.mutants_of conf_name) in
        (conf_name, device, conf :: mutants))
      Experiments.Table4.cases
  in
  (* Single-mode environments execute one instance per iteration, so a
     cell's cost is dominated by the campaign prefix (compile, workspace,
     weak params, horizon) — the work the schema plan memoizes. The
     seeds axis makes full (engine, test, device, env) prefixes recur. *)
  let cells =
    Array.of_list
      (List.concat_map
         (fun (conf_name, device, tests) ->
           let g = Prng.create (Prng.mix seed (Hashtbl.hash conf_name)) in
           let envs =
             List.init n_envs (fun _ -> Params.scaled (Params.random g Params.Single) 0.02)
           in
           List.concat_map
             (fun (test : Litmus.t) ->
               List.concat_map
                 (fun env ->
                   List.init n_seeds (fun s ->
                       let seed =
                         Prng.mix seed (Hashtbl.hash (conf_name, test.Litmus.name, s))
                       in
                       Request.make ~device ~env ~test ~iterations ~seed ()))
                 envs)
             tests)
         cases)
  in
  let n = Array.length cells in
  let col = n_envs * n_seeds in
  let family i = i / col in
  let grid = Grid.make ~family Runner.Rate ~n ~request:(Array.get cells) in
  let sweep plan () = Grid.run (Request.context ~plan ~domains:1 ()) grid in
  Printf.printf
    "  matrix of %d cells (%d columns x %d envs x %d seeds, %d iteration(s), Single mode)\n%!" n
    (n / col) n_envs n_seeds iterations;
  (* Reference results + the schema run's counter delta, before the
     timed reps warm any domain-local cache. *)
  let reference = sweep Request.Per_cell () in
  let s0 = Runner.engine_stats () in
  let schema_res = sweep Request.Schema () in
  let counters = Runner.engine_stats_sub (Runner.engine_stats ()) s0 in
  let identical = schema_res = reference in
  Printf.printf "  schema run: %s\n%!" (Format.asprintf "%a" Runner.pp_engine_stats counters);
  let time_min ~reps f =
    let best = ref infinity in
    for _ = 1 to reps do
      let _, t = wall f in
      if t < !best then best := t
    done;
    !best
  in
  let reps = if smoke then 1 else 10 in
  let per_cell_s = time_min ~reps (sweep Request.Per_cell) in
  let schema_s = time_min ~reps (sweep Request.Schema) in
  let speedup = if schema_s > 0. then per_cell_s /. schema_s else 0. in
  Printf.printf "  per-cell plan           %8.4f s\n%!" per_cell_s;
  Printf.printf "  schema plan             %8.4f s   %5.2fx%s\n%!" schema_s speedup
    (if identical then "   (bit-identical)" else "   RESULTS DIVERGED");
  let json =
    Jsonw.Obj
      [
        ("benchmark", Jsonw.String "mutant-schemata");
        ("smoke", Jsonw.Bool smoke);
        ("kernel_code_version", Jsonw.Int Mcm_gpu.Kernel.code_version);
        ("grid_points", Jsonw.Int n);
        ("columns", Jsonw.Int (n / col));
        ("envs", Jsonw.Int n_envs);
        ("seeds", Jsonw.Int n_seeds);
        ("iterations", Jsonw.Int iterations);
        ("per_cell_s", Jsonw.Float per_cell_s);
        ("schema_s", Jsonw.Float schema_s);
        ("speedup", Jsonw.Float speedup);
        ("speedup_target", Jsonw.Float 2.);
        ("identical_to_per_cell", Jsonw.Bool identical);
        ( "engine",
          Jsonw.Obj
            [
              ("kernels_compiled", Jsonw.Int counters.Runner.kernels_compiled);
              ("schema_reuses", Jsonw.Int counters.Runner.schema_reuses);
              ("workspaces_built", Jsonw.Int counters.Runner.workspaces_built);
              ("workspace_reuses", Jsonw.Int counters.Runner.workspace_reuses);
            ] );
      ]
  in
  let path =
    match Sys.getenv_opt "MCM_BENCH_SCHEMATA_OUT" with
    | Some p when p <> "" -> p
    | _ -> "BENCH_schemata.json"
  in
  let oc = open_out path in
  Jsonw.to_channel oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n%!" path;
  if not identical then begin
    prerr_endline "bench: schema plan diverged from per-cell compilation";
    exit 1
  end;
  if (not smoke) && speedup < 2. then begin
    Printf.eprintf "bench: schema plan speedup %.2fx is below the 2x contract\n" speedup;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part: generated corpus                                               *)

(* Contracts, asserted on every run (exit 1 on violation):

   1. the admission gate is sound by construction — zero uncertified
      entries and zero cross-engine disagreements with the check on;
   2. seeded generation is byte-reproducible: the same configuration
      serializes to the same bytes across domain counts;
   3. a generated corpus is an ordinary campaign — through the schemata
      plan with a store, a warm rerun is served 100% from cache and is
      bit-identical to the cold run.

   The recorded numbers (candidate executions certified per second and
   the admission rate) track the generator's throughput; the campaign
   section tracks that corpus cells stay store-cacheable. *)

module Corpus = Mcm_corpus.Corpus
module CShape = Mcm_corpus.Shape
module CAdmit = Mcm_corpus.Admit

let corpus_bench ~smoke () =
  section "Generated corpus: synthesis, oracle-certified admission, campaign";
  let shape_spec = if smoke then "2x3x2" else "2x5x2" in
  let shape =
    match CShape.of_spec shape_spec with
    | Ok s -> s
    | Error e ->
        Printf.eprintf "bench: bad corpus shape %s: %s\n" shape_spec e;
        exit 1
  in
  let meta = { Corpus.default_meta with Corpus.shape } in
  (* 1. Generation + admission throughput, cross-engine check on. *)
  let corpus, gen_s = wall (fun () -> Corpus.generate ~cross_check:true ~domains:2 meta) in
  let s = corpus.Corpus.stats in
  let candidates_per_s =
    if gen_s > 0. then float_of_int s.CAdmit.candidates /. gen_s else 0.
  in
  let admission_rate =
    if s.CAdmit.programs > 0 then
      float_of_int s.CAdmit.admitted /. float_of_int s.CAdmit.programs
    else 0.
  in
  let engines_agree = s.CAdmit.uncertified = 0 && s.CAdmit.disagreements = 0 in
  Printf.printf
    "  shape %s: %d programs through the gate (%d raw enumerations), %d candidate executions\n"
    shape_spec s.CAdmit.programs s.CAdmit.raw s.CAdmit.candidates;
  Printf.printf
    "  admitted %d (%d conformance, %d weak, %d interleaved, %d operator mutants)\n"
    s.CAdmit.admitted s.CAdmit.conformance s.CAdmit.weak s.CAdmit.interleaved
    s.CAdmit.operator_mutants;
  Printf.printf "  admission              %8.4f s   %8.0f candidates/s, rate %.2f\n"
    gen_s candidates_per_s admission_rate;
  Printf.printf "  cross-engine check     %s\n%!"
    (if engines_agree then "both oracle engines agree on every verdict"
     else
       Printf.sprintf "%d uncertified, %d DISAGREEMENT(S)" s.CAdmit.uncertified
         s.CAdmit.disagreements);
  (* 2. Byte reproducibility across domain counts. *)
  let corpus1 = Corpus.generate ~cross_check:true ~domains:1 meta in
  let reproducible = Corpus.to_string corpus = Corpus.to_string corpus1 in
  Printf.printf "  reproducibility        %s\n%!"
    (if reproducible then "byte-identical across domain counts" else "BYTES DIVERGED");
  (* 3. The corpus as a campaign: schemata plan + store, cold then warm. *)
  let root =
    match Sys.getenv_opt "MCM_BENCH_CORPUS_DIR" with
    | Some p when p <> "" -> p
    | _ -> "_bench_corpus"
  in
  rm_rf root;
  let entries = Array.of_list corpus.Corpus.entries in
  let n = Array.length entries in
  let device = Device.make Profile.nvidia in
  let env = Params.scaled Params.pte_baseline 0.02 in
  let iterations = if smoke then 2 else 20 in
  let request i =
    Request.make ~device ~env ~test:entries.(i).CAdmit.test ~iterations ~seed:20230325 ()
  in
  let grid = Grid.make Runner.Rate ~n ~request in
  let sweep () =
    Store.with_store root (fun store ->
        Grid.run_stats (Request.context ~domains:2 ~store ~plan:Request.Schema ()) grid)
  in
  let (cold_res, _), cold_s = wall sweep in
  let (warm_res, warm_stats), warm_s = wall sweep in
  let warm_hits, warm_misses =
    match warm_stats with
    | Some st -> (st.Mcm_campaign.Sched.hits, st.Mcm_campaign.Sched.misses)
    | None -> (0, n)
  in
  let campaign_identical = warm_res = cold_res in
  let warm_all_hits = warm_hits = n && warm_misses = 0 in
  Printf.printf "  campaign (%d cells, %d iterations, schemata plan + store)\n" n iterations;
  Printf.printf "    cold store           %8.4f s\n" cold_s;
  Printf.printf "    warm store           %8.4f s   %d/%d hit(s)%s\n%!" warm_s warm_hits n
    (if campaign_identical then "   (bit-identical)" else "   RESULTS DIVERGED");
  let json =
    Jsonw.Obj
      [
        ("benchmark", Jsonw.String "corpus");
        ("smoke", Jsonw.Bool smoke);
        ("cores", Jsonw.Int (Pool.default_domains ()));
        ("corpus_version", Jsonw.String Mcm_corpus.Version.version);
        ("shape", Jsonw.String shape_spec);
        ("raw", Jsonw.Int s.CAdmit.raw);
        ("programs", Jsonw.Int s.CAdmit.programs);
        ("candidates", Jsonw.Int s.CAdmit.candidates);
        ("admitted", Jsonw.Int s.CAdmit.admitted);
        ("conformance", Jsonw.Int s.CAdmit.conformance);
        ("weak", Jsonw.Int s.CAdmit.weak);
        ("interleaved", Jsonw.Int s.CAdmit.interleaved);
        ("operator_mutants", Jsonw.Int s.CAdmit.operator_mutants);
        ("generation_s", Jsonw.Float gen_s);
        ("candidates_per_s", Jsonw.Float candidates_per_s);
        ("admission_rate", Jsonw.Float admission_rate);
        ("engines_agree", Jsonw.Bool engines_agree);
        ("reproducible", Jsonw.Bool reproducible);
        ( "campaign",
          Jsonw.Obj
            [
              ("cells", Jsonw.Int n);
              ("iterations", Jsonw.Int iterations);
              ("cold_s", Jsonw.Float cold_s);
              ("warm_s", Jsonw.Float warm_s);
              ("warm_hits", Jsonw.Int warm_hits);
              ("warm_misses", Jsonw.Int warm_misses);
              ("identical", Jsonw.Bool campaign_identical);
            ] );
      ]
  in
  let path =
    match Sys.getenv_opt "MCM_BENCH_CORPUS_OUT" with
    | Some p when p <> "" -> p
    | _ -> "BENCH_corpus.json"
  in
  let oc = open_out path in
  Jsonw.to_channel oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n%!" path;
  if not engines_agree then begin
    prerr_endline "bench: corpus admission verdicts diverged between oracle engines";
    exit 1
  end;
  if not reproducible then begin
    prerr_endline "bench: seeded corpus generation is not byte-reproducible";
    exit 1
  end;
  if not (warm_all_hits && campaign_identical) then begin
    Printf.eprintf
      "bench: corpus campaign cache contract violated (%d/%d warm hits, identical=%B)\n"
      warm_hits n campaign_identical;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part: memory scopes — BENCH_scope.json                               *)

(* Two contracts behind the scoped semantics:

   1. Both oracle engines compute identical scoped allowed-sets across
      MP/LB/SB, their fence-narrowed variants, and both thread layouts
      (engines_agree) — the scoped sw gate is implemented twice, in
      enumeration filtering and in constraint propagation, and must
      never drift.
   2. The Scope_dropped bug injection is detected exactly when testing
      spans workgroups: a device-scope conformance test kills it
      inter-workgroup, sees nothing intra-workgroup, and a clean device
      never violates. Both execution engines must report bit-identical
      campaigns (identical).

   Any violated contract exits 1. *)

let scope_bench ~smoke () =
  let module Scope = Mcm_memmodel.Scope in
  let module Instr = Mcm_litmus.Instr in
  section "Memory scopes: oracle agreement + scope-drop detection";
  (* 1. Scoped oracle layer, both engines, both layouts. *)
  let narrowed (t : Litmus.t) =
    {
      t with
      Litmus.name = t.Litmus.name ^ "-wg";
      threads =
        Array.map
          (List.map (fun i ->
               if Instr.is_fence i then Instr.with_scope Scope.Workgroup i else i))
          t.Litmus.threads;
    }
  in
  let base = [ Library.mp_relacq; Library.lb_relacq; Library.sb_relacq_rmw ] in
  let tests = base @ List.map narrowed base in
  let layouts = [ Scope.Inter; Scope.Intra ] in
  let allowed_sets engine =
    List.concat_map
      (fun t ->
        List.map
          (fun layout ->
            Oracle_outcome.elements (Oracle_outcome.allowed ~engine ~layout t.Litmus.model t))
          layouts)
      tests
  in
  let enum_sets, enum_s = wall (fun () -> allowed_sets Oracle_engine.Enumerate) in
  let prop_sets, prop_s = wall (fun () -> allowed_sets Oracle_engine.Propagate) in
  let engines_agree = enum_sets = prop_sets in
  Printf.printf "  scoped allowed-sets (%d tests x %d layouts)\n" (List.length tests)
    (List.length layouts);
  Printf.printf "    enumerate            %8.4f s\n" enum_s;
  Printf.printf "    propagate            %8.4f s\n" prop_s;
  Printf.printf "    agreement            %s\n%!"
    (if engines_agree then "bit-identical under both engines" else "ENGINES DIVERGED");
  (* 2. Scope_dropped detection grid: {bugged, clean} devices x
     {inter, intra} workgroup layouts, through both execution engines. *)
  let bugged = Device.make ~bugs:[ Bug.Scope_dropped 1.0 ] Profile.nvidia in
  let clean = Device.make Profile.nvidia in
  let env_inter = Params.scaled Params.pte_baseline 0.05 in
  let env_intra = Params.with_scope env_inter Params.Intra_workgroup in
  let iterations = if smoke then 4 else 100 in
  let detector = Library.mp_relacq in
  let campaign engine =
    List.map
      (fun (device, env) ->
        (run_cell ~engine ~domains:2 Runner.Rate ~device ~env ~test:detector ~iterations
           ~seed:20230325)
          .Runner.kills)
      [ (bugged, env_inter); (bugged, env_intra); (clean, env_inter) ]
  in
  let interp_kills, interp_s = wall (fun () -> campaign Runner.Interpreter) in
  let kernel_kills, kernel_s = wall (fun () -> campaign Runner.Kernel) in
  let identical = interp_kills = kernel_kills in
  let inter_bug, intra_bug, inter_clean =
    match interp_kills with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  let detected_only_inter = inter_bug > 0 && intra_bug = 0 && inter_clean = 0 in
  Printf.printf "  scope-drop detection (%s, %d iterations)\n" detector.Litmus.name iterations;
  Printf.printf "    bugged, inter-wg     %6d violation(s)%s\n" inter_bug
    (if inter_bug > 0 then "   (bug caught)" else "   BUG MISSED");
  Printf.printf "    bugged, intra-wg     %6d violation(s)%s\n" intra_bug
    (if intra_bug = 0 then "   (invisible, as specified)" else "   FALSE ALARM");
  Printf.printf "    clean,  inter-wg     %6d violation(s)%s\n" inter_clean
    (if inter_clean = 0 then "" else "   FALSE ALARM");
  Printf.printf "    interpreter          %8.4f s\n" interp_s;
  Printf.printf "    kernel               %8.4f s   %s\n%!" kernel_s
    (if identical then "(bit-identical campaigns)" else "RESULTS DIVERGED");
  let json =
    Jsonw.Obj
      [
        ("benchmark", Jsonw.String "scope");
        ("smoke", Jsonw.Bool smoke);
        ("key_code_version", Jsonw.String Mcm_campaign.Key.code_version);
        ("kernel_code_version", Jsonw.Int Mcm_gpu.Kernel.code_version);
        ("corpus_version", Jsonw.String Mcm_corpus.Version.version);
        ( "oracle",
          Jsonw.Obj
            [
              ("tests", Jsonw.Int (List.length tests));
              ("layouts", Jsonw.Int (List.length layouts));
              ("enumerate_s", Jsonw.Float enum_s);
              ("propagate_s", Jsonw.Float prop_s);
            ] );
        ("engines_agree", Jsonw.Bool engines_agree);
        ( "detection",
          Jsonw.Obj
            [
              ("test", Jsonw.String detector.Litmus.name);
              ("iterations", Jsonw.Int iterations);
              ("inter_workgroup_bugged_kills", Jsonw.Int inter_bug);
              ("intra_workgroup_bugged_kills", Jsonw.Int intra_bug);
              ("inter_workgroup_clean_kills", Jsonw.Int inter_clean);
              ("detected_only_inter_workgroup", Jsonw.Bool detected_only_inter);
            ] );
        ("identical", Jsonw.Bool identical);
      ]
  in
  let path =
    match Sys.getenv_opt "MCM_BENCH_SCOPE_OUT" with
    | Some p when p <> "" -> p
    | _ -> "BENCH_scope.json"
  in
  let oc = open_out path in
  Jsonw.to_channel oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n%!" path;
  if not engines_agree then begin
    prerr_endline "bench: scoped allowed-sets diverged between oracle engines";
    exit 1
  end;
  if not identical then begin
    prerr_endline "bench: scope-drop campaigns diverged between execution engines";
    exit 1
  end;
  if not detected_only_inter then begin
    Printf.eprintf
      "bench: scope-drop detection contract violated (inter/bugged %d, intra/bugged %d, \
       inter/clean %d)\n"
      inter_bug intra_bug inter_clean;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Part 3: Bechamel micro-benchmarks                                    *)

open Bechamel
open Toolkit

let bench_tests () =
  let nvidia = Device.make Profile.nvidia in
  let small_env = Params.scaled Params.pte_baseline 0.005 in
  let mutant = (Option.get (Suite.find "MP-relacq-m3")).Suite.test in
  let conf = (Option.get (Suite.find "MP-relacq")).Suite.test in
  let tiny_config =
    { Tuning.n_envs = 2; site_iterations = 10; pte_iterations = 2; scale = 0.005; seed = 1 }
  in
  let weak = Gpu_instance.effective_params Profile.nvidia ~amplification:20. in
  let g = Prng.create 11 in
  [
    (* Table 2: the generator pipeline (templates, derivation by
       enumeration, all three mutators). *)
    Test.make ~name:"table2/suite-generation"
      (Staged.stage (fun () -> ignore (Suite.generate ())));
    (* Table 3 is static; its cost proxy is profile table rendering. *)
    Test.make ~name:"table3/render" (Staged.stage (fun () -> ignore (Experiments.table3 ())));
    (* Fig. 5's unit of work: one testing campaign of one mutant in one
       environment on one device. *)
    Test.make ~name:"fig5/pte-campaign"
      (Staged.stage (fun () ->
           ignore
             (run_cell Runner.Rate ~device:nvidia ~env:small_env ~test:mutant ~iterations:1
                ~seed:3)));
    Test.make ~name:"fig5/site-campaign"
      (Staged.stage (fun () ->
           ignore
             (run_cell Runner.Rate ~device:nvidia ~env:Params.site_baseline ~test:mutant
                ~iterations:10 ~seed:3)));
    (* Fig. 6's unit of work: one Algorithm-1 merge over a rate matrix. *)
    Test.make ~name:"fig6/merge-environments"
      (Staged.stage
         (let table = Array.init 150 (fun e -> Array.init 4 (fun d -> float_of_int (e + d))) in
          fun () ->
            ignore
              (Merge.choose
                 ~rate:(fun ~env ~device -> table.(env).(device))
                 ~n_envs:150 ~n_devices:4 ~target:0.99999 ~budget:64.)));
    (* Table 4's unit of work: a Pearson correlation over 150 pairs. *)
    Test.make ~name:"table4/pearson-150"
      (Staged.stage
         (let xs = Array.init 150 (fun i -> float_of_int i) in
          let ys = Array.init 150 (fun i -> float_of_int (i * i)) in
          fun () -> ignore (Pearson.p_value ~r:(Pearson.pcc xs ys) ~n:150)));
    (* The operational core: a single litmus-test instance execution. *)
    Test.make ~name:"substrate/instance-run"
      (Staged.stage (fun () ->
           ignore
             (Gpu_instance.run ~prng:g ~weak ~bugs:Bug.none ~test:conf ~starts:[| 0.; 10. |] ())));
    (* The axiomatic core: enumerate-and-classify a 6-event test. *)
    Test.make ~name:"substrate/enumerate-mp-relacq"
      (Staged.stage (fun () -> ignore (Enumerate.consistent_outcomes conf.Litmus.model conf)));
    (* The oracle's streaming counterpart of the same enumeration. *)
    Test.make ~name:"oracle/allowed-mp-relacq"
      (Staged.stage (fun () -> ignore (Oracle_outcome.allowed conf.Litmus.model conf)));
    (* One full mutant certificate (witness search + vacuity check). *)
    Test.make ~name:"oracle/certify-mutant"
      (Staged.stage (fun () -> ignore (Mcm_oracle.Certify.mutant mutant)));
    (* The textual format round-trip. *)
    Test.make ~name:"substrate/parse-roundtrip"
      (Staged.stage
         (let src = Mcm_litmus.Parse.to_source conf in
          fun () -> ignore (Mcm_litmus.Parse.parse src)));
    (* WGSL shader emission. *)
    Test.make ~name:"substrate/wgsl-emit"
      (Staged.stage (fun () -> ignore (Mcm_wgsl.Wgsl.shader conf ~env:small_env)));
    (* Outcome classification setup (one enumeration + thread orders). *)
    Test.make ~name:"substrate/classifier-build"
      (Staged.stage (fun () ->
           let classify = Mcm_litmus.Classify.classifier conf in
           ignore (classify (Litmus.empty_outcome conf))));
    (* Sec. 3.4 observability of one mutant under TSO. *)
    Test.make ~name:"prune/observable-under-tso"
      (Staged.stage (fun () ->
           ignore
             (Mcm_core.Prune.observable ~implementation:Mcm_memmodel.Cat.tso mutant)));
    (* A whole miniature tuning sweep (the fig5+fig6 driver). *)
    Test.make ~name:"harness/mini-sweep"
      (Staged.stage (fun () ->
           ignore
             (Tuning.sweep
                ~devices:[ nvidia ]
                ~tests:
                  (List.filter
                     (fun (e : Suite.entry) -> e.Suite.test.Litmus.name = "MP-CO-m")
                     (Suite.mutants ()))
                tiny_config)));
  ]

let run_benchmarks () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  section "Bechamel micro-benchmarks (ns per run)";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-34s %14.1f ns/run\n%!" name est
          | _ -> Printf.printf "  %-34s (no estimate)\n%!" name)
        analyzed)
    (List.map (fun t -> Test.make_grouped ~name:"" [ t ]) (bench_tests ()))

let () =
  let smoke =
    match Sys.getenv_opt "MCM_BENCH_SMOKE" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true
  in
  (* MCM_BENCH_PART runs a single part — e.g. `make bench-instance` sets
     MCM_BENCH_PART=instance for the kernel bench alone. *)
  match Sys.getenv_opt "MCM_BENCH_PART" with
  | Some "instance" -> instance_bench ~smoke ()
  | Some "parallel" -> parallel_bench ~smoke ()
  | Some "oracle" -> oracle_bench ~smoke ()
  | Some "store" -> store_bench ~smoke ()
  | Some "pipeline" -> pipeline_bench ~smoke ()
  | Some "serve" -> serve_bench ~smoke ()
  | Some "schemata" -> schemata_bench ~smoke ()
  | Some "corpus" -> corpus_bench ~smoke ()
  | Some "scope" -> scope_bench ~smoke ()
  | Some part ->
      Printf.eprintf
        "bench: unknown MCM_BENCH_PART %S \
         (instance|parallel|oracle|store|pipeline|serve|schemata|corpus|scope)\n"
        part;
      exit 2
  | None ->
      (* The instance bench is NOT part of the default runs: its
         zero-allocation contract only holds in the release profile
         (dev builds pass -opaque, defeating the Prng.Raw inlining), so
         it is reached exclusively through `make bench-instance{,-smoke}`,
         which set MCM_BENCH_PART=instance on a --profile release
         build. *)
      if smoke then begin
        (* CI-speed verification: build the suite, exercise the parallel
           sweep at 1 iteration, check bit-identity, skip the slow
           parts. *)
        print_endline "MC Mutants reproduction: smoke bench (MCM_BENCH_SMOKE)";
        parallel_bench ~smoke:true ();
        oracle_bench ~smoke:true ();
        store_bench ~smoke:true ();
        pipeline_bench ~smoke:true ();
        serve_bench ~smoke:true ();
        schemata_bench ~smoke:true ();
        corpus_bench ~smoke:true ();
        scope_bench ~smoke:true ();
        print_endline "smoke ok."
      end
      else begin
        print_endline "MC Mutants reproduction: evaluation harness";
        print_reproductions ();
        parallel_bench ~smoke:false ();
        oracle_bench ~smoke:false ();
        store_bench ~smoke:false ();
        pipeline_bench ~smoke:false ();
        serve_bench ~smoke:false ();
        schemata_bench ~smoke:false ();
        corpus_bench ~smoke:false ();
        scope_bench ~smoke:false ();
        run_benchmarks ();
        print_newline ();
        print_endline "done."
      end

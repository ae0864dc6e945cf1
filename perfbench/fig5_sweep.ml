(* fig5-sweep: the paper's Fig. 5 experiment — every generated mutant on
   every correct device in all four environment categories — as one
   Tuning.sweep per round, some rounds sweeping again. There is no store:
   a few images are reused across hundreds of cells, so instance
   execution dominates and compile, key and store code barely run. It is
   the workload on which compile and store changes should show nothing. *)

module Tuning = Mcm_harness.Tuning
module Suite = Mcm_core.Suite
module Litmus = Mcm_litmus.Litmus
module Device = Mcm_gpu.Device
module Request = Mcm_testenv.Request
module Runner = Mcm_testenv.Runner
module Prng = Mcm_util.Prng
open Bench

(* Every fourth round sweeps its configuration a second time, for
   warm_rerun_s; without a store the rerun recomputes every cell. *)
let rerun_every = 4

(* The 32 mutants of a fresh suite generation (fresh test values). *)
let mutants c =
  match Suite.generate () with
  | Error e ->
      Stats.check c.tally false ("suite generation: " ^ e);
      failwith e
  | Ok entries ->
      List.filter
        (fun (e : Suite.entry) -> match e.Suite.role with Suite.Mutant_of _ -> true | _ -> false)
        entries

(* One sweep point as a request, derived the way Tuning.sweep derives
   it. The replay and the reference check need cells one at a time;
   every rebuilt cell is checked against the sweep's own result, so a
   drift here fails the run rather than measuring the wrong cells. *)
let request (cfg : Tuning.config) tests (run : Tuning.run) =
  let test =
    (List.find (fun (e : Suite.entry) -> e.Suite.test.Litmus.name = run.Tuning.test_name) tests)
      .Suite.test
  in
  let iterations =
    match run.Tuning.category with
    | Tuning.Site_baseline | Tuning.Site -> cfg.Tuning.site_iterations
    | Tuning.Pte_baseline | Tuning.Pte -> cfg.Tuning.pte_iterations
  in
  let seed =
    Prng.mix cfg.Tuning.seed
      (Hashtbl.hash
         ( Tuning.category_name run.Tuning.category,
           run.Tuning.env_index,
           Device.name run.Tuning.device,
           test.Litmus.name ))
  in
  Request.make ~device:run.Tuning.device ~env:run.Tuning.env ~test ~iterations ~seed ()

(* The sweep's cells one by one, serially, each Runner.exec in a span. *)
let replay c sp ~cfg ~runs =
  let tests = mutants c in
  let reqs = Array.map (request cfg tests) runs in
  let instances = ref 0 in
  let (), seconds =
    Probe.time (fun () ->
        Span.record sp "replay" (fun root ->
            Array.iteri
              (fun i (run : Tuning.run) ->
                let res =
                  Span.record sp ~parent:root ~cell:i "runner.exec" (fun _ ->
                      Runner.exec Runner.Rate reqs.(i) Request.serial)
                in
                instances := !instances + res.Runner.instances;
                Stats.check c.tally (res = run.Tuning.result) "replayed sweep cell differs")
              runs))
  in
  (seconds, !instances, List.map (fun (e : Suite.entry) -> e.Suite.test) tests)

let run c =
  let s = samples () and l = layers () in
  let ctx = Request.context ~domains:c.domains () in
  let measure r cfg =
    Span.record c.spans "round" (fun root ->
        let phase name f = Span.record c.spans ~parent:root name (fun _ -> f ()) in
        (* Set-up is what a sweep is given: the correct devices and a
           fresh generation of the mutant suite. *)
        let (devices, (tests, gen_s)), setup_s =
          Probe.time (fun () ->
              let devices = Device.all_correct () in
              (devices, Probe.time (fun () -> phase "suite.generate" (fun () -> mutants c))))
        in
        Stats.check c.tally (List.length tests = 32) "the generated suite does not have 32 mutants";
        let sweep name =
          phase name (fun () -> counted c l (fun () -> Tuning.sweep ~ctx ~devices ~tests cfg))
        in
        let runs, sweep_s = Probe.time (fun () -> sweep "grid.run") in
        if r mod rerun_every = 0 then begin
          let again, rerun_s = Probe.time (fun () -> sweep "grid.rerun") in
          List.iter2
            (fun (a : Tuning.run) (b : Tuning.run) ->
              Stats.check c.tally (a.Tuning.result = b.Tuning.result) "sweep rerun differs")
            runs again;
          s.warm <- rerun_s :: s.warm
        end;
        s.setup <- setup_s :: s.setup;
        s.generate <- gen_s :: s.generate;
        s.wall <- sweep_s :: s.wall;
        grid_latency s ~rss:Probe.peak_rss_mb sweep_s;
        let instances =
          List.fold_left (fun a (r : Tuning.run) -> a + r.Tuning.result.Runner.instances) 0
        in
        throughput s ~seconds:sweep_s ~cells:(List.length runs) ~instances:(instances runs);
        (tests, Array.of_list runs))
  in
  let round r =
    let cfg = Inputs.fig5_config ~seed:c.seed ~round:r in
    let tests, runs = measure r cfg in
    Corpus_e2e.check_reference c ~round:r
      (Array.map (request cfg tests) runs)
      (Array.map (fun (run : Tuning.run) -> run.Tuning.result) runs);
    if c.trace then replay_twice c l (fun sp -> replay c sp ~cfg ~runs)
  in
  let rounds = loop c round in
  report c s ~rss:Probe.peak_rss_mb;
  if c.trace then summarise c l ~rounds

(* corpus-e2e: generate → certify → save → load → cold campaign → warm
   reruns, one corpus shard per round.

   Every cell is a distinct generated test, so per-cell setup (image
   compile, prefab build, one store append) is paid on every cell, and
   this is the only workload that runs the oracle and corpus layers. *)

module Corpus = Mcm_corpus.Corpus
module Admit = Mcm_corpus.Admit
module Parse = Mcm_litmus.Parse
module Grid = Mcm_harness.Grid
module Request = Mcm_testenv.Request
module Runner = Mcm_testenv.Runner
module Store = Mcm_campaign.Store
module Sched = Mcm_campaign.Sched
module Key = Mcm_campaign.Key
open Bench

(* Warm reruns per round: one is a few ms, so several are timed. *)
let warm_reruns = 5

let requests inp (corpus : Corpus.t) =
  let device = Mcm_gpu.Device.make (Option.get (Mcm_gpu.Profile.find Inputs.corpus_device)) in
  Array.of_list
    (List.mapi
       (fun i (e : Admit.entry) ->
         Request.make ~device ~env:Inputs.corpus_env ~test:e.Admit.test
           ~iterations:Inputs.corpus_iterations ~seed:(Inputs.corpus_cell_seed inp i) ())
       corpus.Corpus.entries)

let load c path =
  match Corpus.load ~path with
  | Ok t -> t
  | Error e ->
      Stats.check c.tally false ("corpus load: " ^ e);
      failwith e

(* Every program through the admission gate is an operation; an oracle
   disagreement or an uncertified derived test is a failed one. *)
let admission c (s : Admit.stats) =
  Stats.count c.tally ~attempted:s.Admit.programs
    ~failed:(s.Admit.disagreements + s.Admit.uncertified)
    "admission: oracle engines disagree or a derived test failed certification"

(* Every round, one seeded cell of the round's grid is recomputed on the
   interpreter engine with per-cell compilation — the reference paths —
   and must match bit for bit. The cell is drawn among those whose target
   was observed, where a wrong draw or outcome shows. *)
let check_reference c ~round reqs (results : Runner.result array) =
  let all = List.init (Array.length reqs) Fun.id in
  let killed = List.filter (fun i -> results.(i).Runner.kills > 0) all in
  match Array.of_list (if killed = [] then all else killed) with
  | [||] -> ()
  | pool ->
      let i = pool.(Mcm_util.Prng.int (Inputs.stream c.seed 6 round) (Array.length pool)) in
      let reference =
        Runner.exec Runner.Rate
          { (reqs.(i)) with Request.engine = Request.Interpreter }
          { Request.serial with Request.plan = Request.Per_cell }
      in
      Stats.check c.tally (reference = results.(i))
        "cell differs from its interpreter/per-cell recomputation"

(* One serial pass over a loaded corpus, each call in its own span:
   Corpus.recertify, Parse.parse of every entry's source, then per cell
   Request.key → Store.find → Runner.exec → Runner.encode → Store.add
   with Store.flush per shard, then the warm path Request.key →
   Store.find → Runner.decode, and one Sched.plan. Results are checked
   against the round's cold grid. *)
let replay c l sp ~store_dir ~corpus ~reqs ~cold =
  let n = Array.length reqs in
  let traced = sp.Span.enabled in
  let tests = List.map (fun (e : Admit.entry) -> e.Admit.test) corpus.Corpus.entries in
  let sources = List.map Parse.to_source tests in
  let kind = Runner.kind Runner.Rate in
  Probe.fresh_dir store_dir;
  let store = Store.open_store store_dir in
  let instances = ref 0 in
  let find span key =
    let found = span "store.find" (fun _ -> Store.find store key) in
    if traced then begin
      l.finds <- l.finds + 1;
      if found <> None then l.hits <- l.hits + 1
    end;
    found
  in
  let (), seconds =
    Probe.time (fun () ->
        Span.record sp "replay" (fun root ->
            let rechecks =
              Span.record sp ~parent:root "oracle.recertify" (fun _ -> Corpus.recertify corpus)
            in
            let agrees (r : Corpus.recheck) = r.Corpus.engines_agree && r.Corpus.matches_stored in
            let disagreements = List.length (List.filter (fun r -> not (agrees r)) rechecks) in
            Stats.count c.tally ~attempted:n ~failed:disagreements "recertification disagrees";
            if traced then add c "oracle.disagreements" (float_of_int disagreements);
            List.iteri
              (fun i src ->
                let parse _ = Parse.parse src in
                match Span.record sp ~parent:root ~cell:i "litmus.parse" parse with
                | Ok _ -> ()
                | Error e -> Stats.check c.tally false ("parse: " ^ e))
              sources;
            for i = 0 to n - 1 do
              let span name f = Span.record sp ~parent:root ~cell:i name f in
              let key = span "key.request_key" (fun _ -> Request.key ~kind reqs.(i)) in
              ignore (find span key);
              let res =
                span "runner.exec" (fun _ -> Runner.exec Runner.Rate reqs.(i) Request.serial)
              in
              let payload = span "runner.codec" (fun _ -> Runner.encode Runner.Rate res) in
              span "store.add" (fun _ -> Store.add store key payload);
              if (i + 1) mod Sched.default_shard = 0 || i = n - 1 then
                Span.record sp ~parent:root "store.flush" (fun _ -> Store.flush store);
              instances := !instances + res.Runner.instances;
              Stats.check c.tally (res = cold.(i)) "replayed cell differs from the grid's"
            done;
            for i = 0 to n - 1 do
              let span name f = Span.record sp ~parent:root ~cell:i name f in
              let key = span "key.request_key" (fun _ -> Request.key ~kind reqs.(i)) in
              match find span key with
              | None -> Stats.check c.tally false "warm replay missed the store"
              | Some payload ->
                  let decoded =
                    span "runner.codec" (fun _ -> Runner.decode Runner.Rate payload)
                  in
                  Stats.check c.tally (decoded = Ok cold.(i)) "warm replay decoded differently"
            done;
            ignore
              (Span.record sp ~parent:root "sched.plan" (fun _ ->
                   Sched.plan store ~key:(fun i -> Request.key ~kind reqs.(i)) ~n))))
  in
  if traced then add c "store.bytes" (float_of_int (Store.stats store).Store.s_bytes);
  Store.close store;
  (seconds, !instances, tests)

let run c =
  let s = samples () and l = layers () in
  let corpus_path = path c "corpus.json" and store_dir = path c "store" in
  let planner (stats : Sched.stats option) ~expect what =
    match stats with
    | None -> Stats.check c.tally false "grid with a store returned no planner stats"
    | Some st ->
        Stats.check c.tally (expect st) what;
        add c "sched.hits" (float_of_int st.Sched.hits);
        add c "sched.misses" (float_of_int st.Sched.misses);
        add c "sched.decode_failures" (float_of_int st.Sched.decode_failures)
  in
  (* The measured part of a round, in one span; returns the cells and
     their cold results. *)
  let measure inp =
    Span.record c.spans "round" (fun root ->
        let phase name f = Span.record c.spans ~parent:root name (fun _ -> f ()) in
        let corpus, gen_s =
          Probe.time (fun () ->
              phase "corpus.generate" (fun () ->
                  Corpus.generate ~cross_check:true ~domains:c.domains inp.Inputs.meta))
        in
        let st = corpus.Corpus.stats in
        admission c st;
        List.iter
          (fun (name, v) -> add c name (float_of_int v))
          [
            ("corpus.programs", st.Admit.programs);
            ("corpus.candidates", st.Admit.candidates);
            ("corpus.admitted", st.Admit.admitted);
            ("corpus.attempts", admission_attempts st);
            ("oracle.disagreements", st.Admit.disagreements);
          ];
        let save () = Corpus.save ~path:corpus_path corpus in
        let (), save_s = Probe.time (fun () -> phase "corpus.save" save) in
        Probe.rm_rf store_dir;
        let (store, loaded), setup_s =
          Probe.time (fun () ->
              let store = phase "store.open" (fun () -> Store.open_store store_dir) in
              (store, phase "corpus.load" (fun () -> load c corpus_path)))
        in
        Stats.check c.tally
          (Key.to_hex (Corpus.key loaded) = Key.to_hex (Corpus.key corpus))
          "loaded corpus key differs from the generated one";
        let reqs = requests inp loaded in
        let n = Array.length reqs in
        let grid = Grid.make Runner.Rate ~n ~request:(fun i -> reqs.(i)) in
        let ctx = Request.context ~domains:c.domains ~store () in
        let run name = phase name (fun () -> counted c l (fun () -> Grid.run_stats ctx grid)) in
        let (cold, stats), cold_s = Probe.time (fun () -> run "grid.run") in
        planner stats ~expect:(fun st -> st.Sched.misses = n) "cold grid found cached cells";
        let warm_s =
          List.init warm_reruns (fun _ ->
              let (warm, stats), seconds = Probe.time (fun () -> run "grid.rerun") in
              planner stats ~expect:(fun st -> st.Sched.hits = n) "warm rerun missed the store";
              Array.iteri
                (fun i w -> Stats.check c.tally (w = cold.(i)) "warm rerun differs from cold")
                warm;
              seconds)
        in
        phase "store.close" (fun () -> Store.close store);
        s.setup <- setup_s :: s.setup;
        s.generate <- gen_s :: s.generate;
        s.wall <- (gen_s +. save_s +. cold_s +. List.fold_left ( +. ) 0. warm_s) :: s.wall;
        s.warm <- warm_s @ s.warm;
        grid_latency s ~rss:Probe.peak_rss_mb cold_s;
        let instances = Array.fold_left (fun a (r : Runner.result) -> a + r.Runner.instances) 0 in
        throughput s ~seconds:cold_s ~cells:n ~instances:(instances cold);
        (reqs, cold))
  in
  let round r =
    let inp = Inputs.corpus_round ~seed:c.seed ~round:r in
    let reqs, cold = measure inp in
    check_reference c ~round:r reqs cold;
    (* Each replay reloads the corpus: fresh test values, so neither
       replay finds the other's images in the domain-local caches. *)
    if c.trace then
      replay_twice c l (fun sp ->
          let corpus = load c corpus_path in
          let reqs = requests inp corpus in
          replay c l sp ~store_dir:(path c "replay-store") ~corpus ~reqs ~cold);
    Probe.rm_rf store_dir;
    Probe.rm_rf corpus_path
  in
  let rounds = loop c round in
  report c s ~rss:Probe.peak_rss_mb;
  if c.trace then summarise c l ~rounds

(* serve-mixed: the real [mcmutants serve] daemon on a fresh store, driven
   by two clients in a closed loop.

   Each round, client 0 submits cold cells plus warm repeats; once the
   daemon has acknowledged them, client 1 submits exact duplicates of
   client 0's last cold cells (still queued, so they join the in-flight
   work), cold cells of its own and warm repeats; when both grids are
   done, client 0 resubmits both grids, now entirely warm. Cold cells mix
   inline litmus sources from a generated corpus with suite names. This
   is the only workload through lib/serve (framing, fair scheduling,
   dedup), and it uses the store differently from the others: index
   reads for warm hits beside an fsync per computed cell before delivery. *)

module Proto = Mcm_serve.Proto
module Client = Mcm_serve.Client
module Corpus = Mcm_corpus.Corpus
module Admit = Mcm_corpus.Admit
module Suite = Mcm_core.Suite
module Parse = Mcm_litmus.Parse
module Litmus = Mcm_litmus.Litmus
module Request = Mcm_testenv.Request
module Runner = Mcm_testenv.Runner
module Store = Mcm_campaign.Store
module Jsonw = Mcm_util.Jsonw
module Jsonp = Mcm_util.Jsonp
open Bench

(* Daemon starts timed for setup_s; the last one serves the workload. *)
let daemon_starts = 9

(* Corpus generations timed for generate_s: one before the first round,
   whose tests are used, then one every [regenerate_every] rounds, so
   the samples span the run. *)
let regenerate_every = 50

(* The inline sources: a small scoped corpus, printed as litmus text. *)
let inline_shape =
  match Mcm_corpus.Shape.of_spec ~fence:true ~wg_fence:true "2x4x2" with
  | Ok s -> s
  | Error e -> invalid_arg e

type daemon = { pid : int; conns : Client.t array }

let connect ~name sock =
  let deadline = Probe.now () +. 30. in
  let rec attempt () =
    match Client.connect ~name ~retry_for:0. sock with
    | Ok conn -> conn
    | Error e when Probe.now () > deadline -> failwith ("connect: " ^ e)
    | Error _ ->
        (* Short sleeps, so set-up time is not rounded up to the poll. *)
        Unix.sleepf 0.0002;
        attempt ()
  in
  attempt ()

(* Start a daemon on a fresh store and open one connection per client
   (two, or one where only one domain is allowed); also returns the time
   from spawning it to the first connection. *)
let start c ~store_dir ~sock ~connect_times =
  Probe.rm_rf store_dir;
  let log = Unix.openfile (path c "daemon.log") Unix.[ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let jobs = string_of_int c.domains in
  let argv = [| c.mcmutants; "serve"; "--store"; store_dir; "--socket"; sock; "--jobs"; jobs |] in
  let t0 = Probe.now () in
  let pid = Unix.create_process c.mcmutants argv Unix.stdin log log in
  Unix.close log;
  let first = ref 0. in
  let conns =
    Array.init (min 2 c.domains) (fun i ->
        let conn, s = Probe.time (fun () -> connect ~name:(Printf.sprintf "bench-%d" i) sock) in
        if i = 0 then first := Probe.now () -. t0 else connect_times := s :: !connect_times;
        conn)
  in
  ({ pid; conns }, !first)

let stop d =
  let c0 = d.conns.(0) in
  Client.send c0 Proto.Shutdown;
  let rec drain () =
    match Client.recv c0 with Ok (Proto.Bye _) | Error _ -> () | Ok _ -> drain ()
  in
  drain ();
  Array.iter Client.close d.conns;
  match snd (Unix.waitpid [] d.pid) with Unix.WEXITED 0 -> true | _ -> false

let fetch_report conn =
  Client.send conn Proto.Report;
  let rec next () =
    match Client.recv conn with
    | Ok (Proto.Reply { op = "report"; data }) -> data
    | Ok _ -> next ()
    | Error e -> failwith ("report: " ^ e)
  in
  next ()

let field data path =
  let rec go j = function
    | [] -> Option.value ~default:0 (Jsonp.to_int j)
    | k :: rest -> ( match Jsonp.member k j with Some v -> go v rest | None -> 0)
  in
  go data path

(* The request a cell names, resolved as the daemon resolves it: names
   against [suite] (a fresh generation when the caller needs fresh
   values), inline sources through [parse]. *)
let resolve ?(parse = Parse.parse) suite (cell : Proto.cell) =
  let test =
    match cell.Proto.c_test with
    | Proto.Name name ->
        (List.find (fun (e : Suite.entry) -> e.Suite.test.Litmus.name = name) suite).Suite.test
    | Proto.Source src -> (
        match parse src with Ok t -> t | Error e -> failwith ("source: " ^ e))
  in
  Request.make ~engine:cell.Proto.c_engine
    ~device:(Mcm_gpu.Device.make (Option.get (Mcm_gpu.Profile.find cell.Proto.c_device)))
    ~env:cell.Proto.c_env ~test ~iterations:cell.Proto.c_iterations ~seed:cell.Proto.c_seed ()

let cell_id cell = Jsonw.to_string (Proto.cell_to_json cell)
let payload_string p = Jsonw.to_string p

(* Replay one round's grids in this process through the calls the daemon
   makes per cell: Parse.parse for inline sources, Request.key,
   Store.find, and for a miss Runner.exec → Runner.encode → Store.add →
   Store.flush (the daemon syncs every computed cell). Names resolve
   against a fresh suite generation, so the two replays of a round do
   not share compiled images. *)
let replay c l sp store (rd : Inputs.serve_round) ~delivered =
  let traced = sp.Span.enabled in
  let suite = match Suite.generate () with Ok s -> s | Error e -> failwith e in
  let kind = Runner.kind Runner.Rate in
  let instances = ref 0 and tests = ref [] in
  let (), seconds =
    Probe.time (fun () ->
        Span.record sp "replay" (fun root ->
            List.iteri
              (fun i (cell : Proto.cell) ->
                let span name f = Span.record sp ~parent:root ~cell:i name f in
                let parse src = span "litmus.parse" (fun _ -> Parse.parse src) in
                let req = resolve ~parse suite cell in
                let key = span "key.request_key" (fun _ -> Request.key ~kind req) in
                let found = span "store.find" (fun _ -> Store.find store key) in
                if traced then begin
                  l.finds <- l.finds + 1;
                  if found <> None then l.hits <- l.hits + 1
                end;
                if found = None then begin
                  let res =
                    span "runner.exec" (fun _ -> Runner.exec Runner.Rate req Request.serial)
                  in
                  let payload = span "runner.codec" (fun _ -> Runner.encode Runner.Rate res) in
                  span "store.add" (fun _ -> Store.add store key payload);
                  span "store.flush" (fun _ -> Store.flush store);
                  instances := !instances + res.Runner.instances;
                  tests := req.Request.test :: !tests;
                  Stats.check c.tally
                    (Hashtbl.find_opt delivered (cell_id cell) = Some (payload_string payload))
                    "replayed payload differs from the daemon's"
                end)
              (rd.Inputs.a @ rd.Inputs.b @ rd.Inputs.w)))
  in
  (seconds, !instances, !tests)

let submit conn ?on_event cells =
  let t0 = Probe.now () in
  let g =
    try Client.submit ~kind:"run" ?on_event conn cells with e -> Error (Printexc.to_string e)
  in
  (g, t0, Probe.now ())

(* One round's three submissions: client 0 sends [a]; client 1, on its
   own thread, sends [b] once the daemon has acknowledged [a]; when both
   are done client 0 sends [w]. Each comes back with its start and end. *)
let threaded d (rd : Inputs.serve_round) =
  let m = Mutex.create () and cv = Condition.create () and acked = ref false in
  let signal () =
    Mutex.lock m;
    acked := true;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  let b = ref (Error "client 1 did not run", 0., 0.) in
  let client1 =
    Thread.create
      (fun () ->
        Mutex.lock m;
        while not !acked do
          Condition.wait cv m
        done;
        Mutex.unlock m;
        b := submit d.conns.(1) rd.Inputs.b)
      ()
  in
  let on_event = function Proto.Ack _ -> signal () | _ -> () in
  let a = Fun.protect ~finally:signal (fun () -> submit d.conns.(0) ~on_event rd.Inputs.a) in
  Thread.join client1;
  let w = submit d.conns.(0) rd.Inputs.w in
  (a, !b, w)

(* A grid in flight on a shared connection. *)
type pending = {
  id : string;
  results : Client.cell_result option array;
  mutable ack : (int * int * int * int) option;
  start : float;
  mutable outcome : ((Client.grid_result, string) result * float * float) option;
}

let submissions = ref 0

(* The same round over one connection: [b] is sent once [a] is
   acknowledged, so its duplicates still join [a]'s in-flight cells, and
   both result streams are read off the one socket here, as
   Client.submit follows one grid and drops the other's messages. *)
let pipelined conn (rd : Inputs.serve_round) =
  let send cells =
    incr submissions;
    let id = Printf.sprintf "perfbench-%d" !submissions in
    let start = Probe.now () in
    Client.send conn (Proto.Submit { id; kind = "run"; priority = 0; cells });
    { id; results = Array.make (List.length cells) None; ack = None; start; outcome = None }
  in
  let finish p r = if p.outcome = None then p.outcome <- Some (r, p.start, Probe.now ()) in
  let a = send rd.Inputs.a in
  let b = ref None in
  let live () = a :: Option.to_list !b in
  let find id = List.find_opt (fun p -> p.id = id) (live ()) in
  (* [b] is only ever sent after [a]'s Ack, which precedes [a]'s end. *)
  let pending () = a.outcome = None || match !b with Some p -> p.outcome = None | None -> false in
  while pending () do
    match Client.recv conn with
    | Error e -> List.iter (fun p -> finish p (Error e)) (live ())
    | Ok (Proto.Ack { id; total; hits; queued; joined }) ->
        Option.iter (fun p -> p.ack <- Some (total, hits, queued, joined)) (find id);
        if id = a.id then b := Some (send rd.Inputs.b)
    | Ok (Proto.Result { id; cell; key; cached; payload }) ->
        Option.iter
          (fun p ->
            if cell >= 0 && cell < Array.length p.results then
              p.results.(cell) <- Some { Client.key; cached; payload })
          (find id)
    | Ok (Proto.Done { id }) ->
        Option.iter
          (fun p ->
            finish p
              (match p.ack with
              | Some (total, hits, queued, joined) when Array.for_all Option.is_some p.results ->
                  Ok { Client.total; hits; queued; joined; cells = Array.map Option.get p.results }
              | _ -> Error "grid done without its acknowledgement or with cells missing"))
          (find id)
    | Ok (Proto.Error { id = Some id; message }) ->
        Option.iter (fun p -> finish p (Error message)) (find id)
    | Ok (Proto.Error { id = None; message }) ->
        List.iter (fun p -> finish p (Error message)) (live ())
    | Ok _ -> ()
  done;
  let outcome p = Option.value ~default:(Error "no outcome", p.start, p.start) p.outcome in
  let b =
    match !b with Some p -> outcome p | None -> (Error "client 1 was never sent", 0., 0.)
  in
  let w = submit conn rd.Inputs.w in
  (outcome a, b, w)

let exchange d rd = if Array.length d.conns > 1 then threaded d rd else pipelined d.conns.(0) rd

let run c =
  let s = samples () and l = layers () in
  let store_dir = path c "serve-store" and sock = path c "serve.sock" in
  let connect_times = ref [] in
  (* Every daemon starts before this process creates a domain. *)
  let daemon = ref None in
  for i = 1 to daemon_starts do
    let d, seconds = start c ~store_dir ~sock ~connect_times in
    s.setup <- seconds :: s.setup;
    if i < daemon_starts then Stats.check c.tally (stop d) "daemon did not exit cleanly"
    else daemon := Some d
  done;
  let d = Option.get !daemon in
  let running = ref true in
  at_exit (fun () ->
      if !running then begin
        (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()
      end);
  let generate () =
    let corpus, seconds =
      Probe.time (fun () ->
          Corpus.generate ~cross_check:true ~domains:c.domains
            { Corpus.default_meta with Corpus.shape = inline_shape })
    in
    s.generate <- seconds :: s.generate;
    corpus
  in
  let corpus = generate () in
  let st = corpus.Corpus.stats in
  Corpus_e2e.admission c st;
  let source (e : Admit.entry) = Parse.to_source e.Admit.test in
  let sources = Array.of_list (List.map source corpus.Corpus.entries) in
  let name (e : Suite.entry) = e.Suite.test.Litmus.name in
  let names = Array.of_list (List.map name (Suite.all ())) in
  (* Payloads as delivered, by cell, for the reference check. *)
  let delivered = Hashtbl.create 4096 and cold_ids = Hashtbl.create 4096 in
  (* The bench's and the daemon's high-water marks together. *)
  let rss () = Probe.peak_rss_mb () +. Probe.peak_rss_mb ~pid:(string_of_int d.pid) () in
  (* Stores for the untraced and the traced replays: each accumulates
     across rounds, as the daemon's does. *)
  let replay_store name =
    Probe.fresh_dir (path c name);
    Store.open_store (path c name)
  in
  let replay_off = replay_store "replay-off" and replay_on = replay_store "replay-on" in
  let record ~warm (cells : Proto.cell list) (g, _, _) =
    match g with
    | Error e -> Stats.check c.tally false ("submit: " ^ e)
    | Ok g ->
        Stats.check c.tally (Array.length g.Client.cells = List.length cells) "grid lost cells";
        List.iteri
          (fun i cell ->
            if i < Array.length g.Client.cells then begin
              let r = g.Client.cells.(i) in
              let id = cell_id cell and p = payload_string r.Client.payload in
              (match Hashtbl.find_opt delivered id with
              | Some q -> Stats.check c.tally (p = q) "one cell delivered two payloads"
              | None -> Hashtbl.replace delivered id p);
              if List.memq cell warm then
                Stats.check c.tally r.Client.cached "warm repeat was not a store hit"
            end)
          cells
  in
  (* The round's cold cells seen for the first time, and their instances. *)
  let new_cold (rd : Inputs.serve_round) =
    List.fold_left
      (fun (n, instances) cell ->
        let id = cell_id cell in
        if Hashtbl.mem cold_ids id then (n, instances)
        else begin
          Hashtbl.replace cold_ids id ();
          match Option.map Jsonp.parse (Hashtbl.find_opt delivered id) with
          | Some (Ok p) -> (
              match Runner.decode Runner.Rate p with
              | Ok res -> (n + 1, instances + res.Runner.instances)
              | Error e ->
                  Stats.check c.tally false ("payload: " ^ e);
                  (n + 1, instances))
          | _ ->
              Stats.check c.tally false "cold cell has no payload";
              (n + 1, instances)
        end)
      (0, 0) rd.Inputs.cold
  in
  let round r =
    let rd = Inputs.serve_round ~seed:c.seed ~sources ~names ~round:r in
    let a, b, w =
      Span.record c.spans "round" (fun root ->
          let ((_, a0, a1), (_, b0, b1), (_, w0, w1)) as subs = exchange d rd in
          List.iter
            (fun (start, stop) -> Span.add c.spans ~parent:root "serve.submit" ~start ~stop)
            [ (a0, a1); (b0, b1); (w0, w1) ];
          subs)
    in
    record ~warm:rd.Inputs.warm rd.Inputs.a a;
    record ~warm:rd.Inputs.warm rd.Inputs.b b;
    record ~warm:rd.Inputs.w rd.Inputs.w w;
    (match w with
    | Ok g, _, _ ->
        Stats.check c.tally (g.Client.hits = g.Client.total) "warm grid missed the store"
    | Error _, _, _ -> ());
    if r > 0 && r mod regenerate_every = 0 then
      Stats.check c.tally
        (Corpus.to_string (generate ()) = Corpus.to_string corpus)
        "inline corpus generation is not reproducible";
    let cells, instances = new_cold rd in
    (* Round 0 only fills the store that later warm repeats read. *)
    if r > 0 then begin
      let (_, a0, a1), (_, b0, b1), (_, w0, w1) = (a, b, w) in
      grid_latency s ~rss (a1 -. a0);
      grid_latency s ~rss (b1 -. b0);
      s.warm <- (w1 -. w0) :: s.warm;
      s.wall <- (w1 -. a0) :: s.wall;
      throughput s ~seconds:(Float.max a1 b1 -. a0) ~cells ~instances
    end;
    if c.trace then
      replay_twice c l (fun sp ->
          replay c l sp (if sp.Span.enabled then replay_on else replay_off) rd ~delivered)
  in
  round 0;
  let rounds = 1 + loop c ~first:1 round in
  set c "rounds" (float_of_int rounds);
  let ledger = fetch_report d.conns.(0) in
  let total name = field ledger [ "totals"; name ] in
  let engine name = field ledger [ "engine"; name ] in
  Stats.check c.tally
    (total "computed" = Hashtbl.length cold_ids)
    (Printf.sprintf "daemon computed %d cells for %d distinct cold cells" (total "computed")
       (Hashtbl.length cold_ids));
  report c s ~rss;
  Stats.check c.tally (stop d) "daemon did not exit cleanly";
  running := false;
  let replay_bytes = (Store.stats replay_on).Store.s_bytes in
  Store.close replay_off;
  Store.close replay_on;
  (* The reference: every distinct cell recomputed directly, in parallel
     now that the daemon is gone. *)
  let suite = Suite.all () in
  let cells = Array.of_seq (Hashtbl.to_seq delivered) in
  let direct (id, _) =
    let ( let* ) = Result.bind in
    let* j = Jsonp.parse id in
    let* cell = Proto.cell_of_json j in
    let result = Runner.exec Runner.Rate (resolve suite cell) Request.serial in
    Ok (payload_string (Runner.encode Runner.Rate result))
  in
  let refs =
    Mcm_util.Pool.with_pool ~domains:c.domains (fun pool ->
        Mcm_util.Pool.map_array pool ~n:(Array.length cells) ~f:(fun i -> direct cells.(i)))
  in
  Array.iteri
    (fun i r ->
      Stats.check c.tally (r = Ok (snd cells.(i))) "payload differs from a direct Runner.exec")
    refs;
  if c.trace then begin
    let compiled = engine "kernelsCompiled" and reuses = engine "schemaReuses" in
    l.images <- (compiled, reuses);
    add c "runner.schema_reuses" (float_of_int reuses);
    add c "runner.workspace_reuses" (float_of_int (engine "workspaceReuses"));
    add c "store.bytes" (float_of_int replay_bytes);
    summarise c l ~rounds;
    let per_round v = float_of_int v /. float_of_int rounds in
    let computed = total "computed" and joined = total "joined" in
    List.iter
      (fun (name, v) -> set c name v)
      [
        ("serve.computed", per_round computed);
        ("serve.joined", per_round joined);
        ("serve.warm_hits", per_round (total "hits"));
        ("serve.dedup_ratio", float_of_int joined /. float_of_int (max 1 (joined + computed)));
        (* Connections after each daemon's first; none with one client. *)
        ("serve.connect_s", if !connect_times = [] then 0. else Stats.median !connect_times);
        (* The inline corpus is generated a few times per run, not per
           round: these are per generation. *)
        ("corpus.generate_s", Stats.median s.generate);
        ("corpus.programs", float_of_int st.Admit.programs);
        ("corpus.candidates", float_of_int st.Admit.candidates);
        ("corpus.admitted", float_of_int st.Admit.admitted);
        ( "corpus.admit_ratio",
          float_of_int st.Admit.admitted /. float_of_int (max 1 (admission_attempts st)) );
        ("oracle.disagreements", float_of_int st.Admit.disagreements);
      ]
  end

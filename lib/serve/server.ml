module Jsonw = Mcm_util.Jsonw
module Pool = Mcm_util.Pool
module Key = Mcm_campaign.Key
module Store = Mcm_campaign.Store
module Suite = Mcm_core.Suite
module Library = Mcm_litmus.Library
module Litmus = Mcm_litmus.Litmus
module Parse = Mcm_litmus.Parse
module Classify = Mcm_litmus.Classify
module Profile = Mcm_gpu.Profile
module Device = Mcm_gpu.Device
module Bug = Mcm_gpu.Bug
module Params = Mcm_testenv.Params
module Request = Mcm_testenv.Request
module Runner = Mcm_testenv.Runner

type config = {
  store_dir : string;
  socket_path : string;
  port : int option;
  jobs : int;
  verbose : bool;
}

type summary = { served : int; computed : int; joined : int; sessions : int }

(* ------------------------------------------------------------------ *)
(* Connections, submissions, jobs                                       *)

type conn = {
  fd : Unix.file_descr;
  cid : int;
  peer : string;
  frame : Proto.Frame.t;
  out : Buffer.t;  (** bytes queued for this client *)
  mutable out_off : int;  (** bytes of [out] already written *)
  mutable cname : string;
  mutable alive : bool;
  mutable watching : bool;
  mutable pending : job list;  (** jobs this client owns, FIFO (newest last) *)
  mutable last_dispatch : int;  (** global dispatch tick of its last served job *)
}

and submission = { sid : string; sconn : conn; mutable remaining : int }

and waiter = { wsub : submission; wcell : int }

and job = {
  jkey : Key.t;
  jkind : string;
  jrequest : Request.t;
  jlabel : string * string * string;  (** test, device, env labels for inspection *)
  jseq : int;  (** admission order, the FIFO tiebreak *)
  mutable jpriority : int;  (** max over every submission that joined *)
  mutable jowner : conn;
  mutable jwaiters : waiter list;
  mutable jrunning : bool;
}

(* One service: all mutable daemon state, confined to the loop domain. *)
type state = {
  cfg : config;
  store : Store.t;
  listeners : Unix.file_descr list;
  mutable conns : conn list;  (** accept order *)
  jobs : (Key.t, job) Hashtbl.t;  (** queued or running cells, by key *)
  mutable seq : int;
  mutable tick : int;  (** dispatch counter, feeds [last_dispatch] *)
  mutable accepting : bool;  (** false once draining *)
  mutable stopping : bool;
  mutable pool : Pool.t option;  (** the worker domains, alive only while cells are queued *)
  started : float;
  (* cumulative service counters *)
  mutable n_sessions : int;
  mutable n_submissions : int;
  mutable n_cells : int;
  mutable n_hits : int;
  mutable n_joined : int;
  mutable n_computed : int;
  rows : (string * string * string, row) Hashtbl.t;  (** report ledger *)
  sources : (string, Litmus.t) Hashtbl.t;  (** parsed inline sources, by text *)
}

and row = {
  mutable r_cells : int;
  mutable r_hits : int;
  mutable r_joined : int;
  mutable r_computed : int;
  mutable r_kills : int;
  mutable r_instances : int;
  mutable r_sim_time : float;
}

let log st fmt =
  if st.cfg.verbose then Printf.eprintf ("serve: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

(* ------------------------------------------------------------------ *)
(* Cell resolution: wire descriptor -> request + labels                 *)

let env_label (env : Params.t) =
  Printf.sprintf "%s:%dx%d%s"
    (match env.Params.mode with Params.Single -> "site" | Params.Parallel -> "pte")
    env.Params.testing_workgroups env.Params.threads_per_workgroup
    (if env.Params.mem_stress_pct > 0 then Printf.sprintf "+stress%d" env.Params.mem_stress_pct
     else "")

(* ~100x the largest repository test (600 candidates, 4 threads); at
   most 8 threads (8! = 40 320). *)
let max_histogram_work = 65_536

let histogram_admissible test =
  let work = Classify.work test in
  if work <= max_histogram_work then Ok ()
  else
    Error
      (Printf.sprintf
         "\"litmus\" test %s: a histogram classifies %d candidate executions or thread orders, \
          above the limit of %d"
         test.Litmus.name work max_histogram_work)

(* A duplicate or resubmitted inline source resolves to the test value
   its first parse built, so the parse is skipped and every cache keyed
   on the physical test (cell keys, prefabs, kernel images) hits. Loop
   domain only. Bounded in entries, as those caches are; reset
   wholesale when full. *)
let source_memo_max = 256

let parse_source st src =
  match Hashtbl.find_opt st.sources src with
  | Some t -> Ok t
  | None ->
      let parsed = Parse.parse src in
      Result.iter
        (fun t ->
          if Hashtbl.length st.sources >= source_memo_max then Hashtbl.reset st.sources;
          Hashtbl.replace st.sources src t)
        parsed;
      parsed

let resolve_cell st ~kind (c : Proto.cell) =
  let ( let* ) = Result.bind in
  let* test =
    match c.Proto.c_test with
    | Proto.Name name -> (
        match Suite.find name with
        | Some e -> Ok e.Suite.test
        | None -> (
            match Library.find name with
            | Some t -> Ok t
            | None -> Error (Printf.sprintf "unknown test %S" name)))
    | Proto.Source src -> (
        match parse_source st src with
        | Ok t -> Ok t
        | Error e -> Error (Printf.sprintf "litmus source: %s" e))
  in
  let* () = if kind = "histogram" then histogram_admissible test else Ok () in
  let* profile =
    match Profile.find c.Proto.c_device with
    | Some p -> Ok p
    | None -> Error (Printf.sprintf "unknown device %S" c.Proto.c_device)
  in
  let* device =
    if not c.Proto.c_bugs then Ok (Device.make profile)
    else
      match Bug.paper_bug profile with
      | Some b -> Ok (Device.make ~bugs:[ b ] profile)
      | None -> Error (Printf.sprintf "device %S has no paper bug to inject" c.Proto.c_device)
  in
  let request =
    Request.make ~engine:c.Proto.c_engine ~device ~env:c.Proto.c_env ~test:test
      ~iterations:c.Proto.c_iterations ~seed:c.Proto.c_seed ()
  in
  let dlabel = profile.Profile.short_name ^ if c.Proto.c_bugs then "+bug" else "" in
  Ok (request, (test.Litmus.name, dlabel, env_label c.Proto.c_env))

let kinds = [ "run"; "histogram"; "outcomes" ]

(* Compute one cell eagerly in the loop domain (workers only ever run
   campaign iterations) and return the store payload. The context
   deliberately carries no store: the daemon owns persistence so it can
   fsync before delivering, and so first-write-wins is enforced in one
   place. *)
let compute_payload ~ctx request = function
  | "run" -> Runner.encode Runner.Rate (Runner.exec Runner.Rate request ctx)
  | "histogram" -> Runner.encode Runner.Histogram (Runner.exec Runner.Histogram request ctx)
  | "outcomes" -> Runner.encode Runner.Outcomes (Runner.exec Runner.Outcomes request ctx)
  | kind -> failwith ("Mcm_serve.Server: unvalidated kind " ^ kind)

(* The daemon owns its queue, so it owns the worker domains that drain
   it: one pool of [jobs] domains, created for the first cold cell and
   lent to every cell after it until the queue is empty. Spawning and
   joining a domain per cell costs about as much as a small cell's
   iterations, and starts every cell with cold per-domain caches
   (images, prefabs, workspaces). Keeping the pool longer costs too: from start-up it
   slows the daemon's start, and through warm-only traffic it slows the
   I/O loop, since every minor collection stops all live domains. *)
let cell_ctx st =
  if st.cfg.jobs <= 1 then Request.serial
  else
    let pool =
      match st.pool with
      | Some p -> p
      | None ->
          let p = Pool.create ~domains:st.cfg.jobs () in
          st.pool <- Some p;
          p
    in
    Request.context ~pool ()

let release_pool st =
  match st.pool with
  | None -> ()
  | Some p ->
      st.pool <- None;
      Pool.shutdown p

(* ------------------------------------------------------------------ *)
(* Ledger                                                               *)

let row_of st label =
  match Hashtbl.find_opt st.rows label with
  | Some r -> r
  | None ->
      let r =
        {
          r_cells = 0;
          r_hits = 0;
          r_joined = 0;
          r_computed = 0;
          r_kills = 0;
          r_instances = 0;
          r_sim_time = 0.;
        }
      in
      Hashtbl.add st.rows label r;
      r

(* Outcome summary from a payload: every kind embeds the campaign
   [result] fields at top level (see Runner's codecs). *)
let tally_payload r payload =
  let module Jsonp = Mcm_util.Jsonp in
  let int name = Option.value ~default:0 (Option.bind (Jsonp.member name payload) Jsonp.to_int) in
  let flt name =
    Option.value ~default:0. (Option.bind (Jsonp.member name payload) Jsonp.to_float)
  in
  r.r_kills <- r.r_kills + int "kills";
  r.r_instances <- r.r_instances + int "instances";
  r.r_sim_time <- r.r_sim_time +. flt "simTimeS"

(* ------------------------------------------------------------------ *)
(* Output plumbing                                                      *)

let enqueue conn msg = if conn.alive then Buffer.add_string conn.out (Proto.server_to_line msg)

let queued_jobs st =
  Hashtbl.fold (fun _ j acc -> if j.jrunning then acc else j :: acc) st.jobs []

let progress_event ?(inflight = 0) st =
  Proto.Progress
    {
      queued = List.length (queued_jobs st);
      inflight;
      clients = List.length (List.filter (fun c -> c.alive) st.conns);
      served = st.n_hits;
      computed = st.n_computed;
    }

let broadcast_progress ?inflight st =
  let ev = progress_event ?inflight st in
  List.iter (fun c -> if c.alive && c.watching then enqueue c ev) st.conns

(* ------------------------------------------------------------------ *)
(* Submission handling                                                  *)

let deliver_result st waiter ~key ~cached payload =
  let sub = waiter.wsub in
  enqueue sub.sconn
    (Proto.Result
       { id = sub.sid; cell = waiter.wcell; key = Key.to_hex key; cached; payload });
  sub.remaining <- sub.remaining - 1;
  if sub.remaining = 0 then enqueue sub.sconn (Proto.Done { id = sub.sid });
  ignore st

let handle_submit st conn ~id ~kind ~priority cells =
  if not st.accepting then
    enqueue conn (Proto.Error { id = Some id; message = "daemon is draining; not accepting new submissions" })
  else if not (List.mem kind kinds) then
    enqueue conn
      (Proto.Error
         {
           id = Some id;
           message = Printf.sprintf "unknown kind %S (run|histogram|outcomes)" kind;
         })
  else begin
    (* Resolve every cell before admitting any: a submission is atomic. *)
    let resolved =
      List.mapi
        (fun i c ->
          match resolve_cell st ~kind c with
          | Ok rc -> Ok rc
          | Error e -> Error (Printf.sprintf "cell %d: %s" i e))
        cells
    in
    match List.find_opt Result.is_error resolved with
    | Some (Error e) -> enqueue conn (Proto.Error { id = Some id; message = e })
    | _ ->
        let resolved = List.map Result.get_ok resolved in
        let total = List.length resolved in
        let sub = { sid = id; sconn = conn; remaining = total } in
        let hits = ref 0 and queued = ref 0 and joined = ref 0 in
        st.n_submissions <- st.n_submissions + 1;
        (* Ack first: the client learns the hit/miss/join split before
           the result stream starts. Results for warm hits follow in the
           same flush, which comes at the end of this loop iteration:
           after the cell the iteration picks, if any, has computed. *)
        let actions =
          List.mapi
            (fun i (request, label) ->
              let key = Request.key ~kind request in
              st.n_cells <- st.n_cells + 1;
              let row = row_of st label in
              row.r_cells <- row.r_cells + 1;
              match Store.find st.store key with
              | Some payload ->
                  incr hits;
                  st.n_hits <- st.n_hits + 1;
                  row.r_hits <- row.r_hits + 1;
                  `Hit (i, key, payload)
              | None -> (
                  match Hashtbl.find_opt st.jobs key with
                  | Some job ->
                      incr joined;
                      st.n_joined <- st.n_joined + 1;
                      row.r_joined <- row.r_joined + 1;
                      `Join (i, job)
                  | None ->
                      incr queued;
                      `Queue (i, key, request, label)))
            resolved
        in
        enqueue conn
          (Proto.Ack { id; total; hits = !hits; queued = !queued; joined = !joined });
        List.iter
          (function
            | `Hit (i, key, payload) ->
                deliver_result st { wsub = sub; wcell = i } ~key ~cached:true payload
            | `Join (i, job) ->
                job.jwaiters <- { wsub = sub; wcell = i } :: job.jwaiters;
                if priority > job.jpriority then job.jpriority <- priority
            | `Queue (i, key, request, label) -> (
                (* Two identical cells inside one submission dedup too:
                   the first created the job, later ones join it. *)
                match Hashtbl.find_opt st.jobs key with
                | Some job -> job.jwaiters <- { wsub = sub; wcell = i } :: job.jwaiters
                | None ->
                    st.seq <- st.seq + 1;
                    let job =
                      {
                        jkey = key;
                        jkind = kind;
                        jrequest = request;
                        jlabel = label;
                        jseq = st.seq;
                        jpriority = priority;
                        jowner = conn;
                        jwaiters = [ { wsub = sub; wcell = i } ];
                        jrunning = false;
                      }
                    in
                    Hashtbl.add st.jobs key job;
                    conn.pending <- conn.pending @ [ job ]))
          actions;
        log st "submit %s from %s: %d cell(s), %d hit, %d queued, %d joined" id conn.cname
          total !hits !queued !joined;
        broadcast_progress st
  end

(* ------------------------------------------------------------------ *)
(* Fair scheduling                                                      *)

let job_eligible j = (not j.jrunning) && j.jwaiters <> []

(* Prune cancelled work (every waiter disconnected) from a client's
   FIFO; the jobs table entry goes with it. *)
let prune_pending st conn =
  conn.pending <-
    List.filter
      (fun j ->
        if j.jwaiters = [] && not j.jrunning then begin
          Hashtbl.remove st.jobs j.jkey;
          log st "cancel %s (%s): no waiters left" (Key.to_hex j.jkey)
            (let t, _, _ = j.jlabel in
             t);
          false
        end
        else true)
      conn.pending

(* The next cell to execute: the eligible client with the highest
   queued priority, least-recently-served first among equals; within
   the client, highest priority then admission order. *)
let pick_job st =
  List.iter (fun c -> prune_pending st c) st.conns;
  let best_of conn =
    List.fold_left
      (fun acc j ->
        if not (job_eligible j) then acc
        else
          match acc with
          | Some b when (b.jpriority, -b.jseq) >= (j.jpriority, -j.jseq) -> acc
          | _ -> Some j)
      None conn.pending
  in
  let candidates =
    List.filter_map
      (fun c -> match best_of c with Some j when c.alive -> Some (c, j) | _ -> None)
      st.conns
  in
  match candidates with
  | [] -> None
  | _ ->
      let best =
        List.fold_left
          (fun acc (c, j) ->
            match acc with
            | None -> Some (c, j)
            | Some (bc, bj) ->
                if (j.jpriority, -c.last_dispatch) > (bj.jpriority, -bc.last_dispatch) then
                  Some (c, j)
                else acc)
          None candidates
      in
      best

let execute_job st conn job =
  st.tick <- st.tick + 1;
  conn.last_dispatch <- st.tick;
  job.jrunning <- true;
  broadcast_progress ~inflight:1 st;
  let t, d, e = job.jlabel in
  log st "compute %s: %s on %s in %s (%d waiter(s))" (Key.to_hex job.jkey) t d e
    (List.length job.jwaiters);
  let payload = compute_payload ~ctx:(cell_ctx st) job.jrequest job.jkind in
  (* Durability before delivery: the record is on disk and fsynced
     before any client learns the result, so a crash right after a
     reply never loses a cell a client saw. *)
  Store.add st.store job.jkey payload;
  Store.flush st.store;
  st.n_computed <- st.n_computed + 1;
  let row = row_of st job.jlabel in
  row.r_computed <- row.r_computed + 1;
  tally_payload row payload;
  Hashtbl.remove st.jobs job.jkey;
  job.jrunning <- false;
  conn.pending <- List.filter (fun j -> j != job) conn.pending;
  (* Waiters joined newest-first; deliver in submission order. *)
  List.iter
    (fun w -> deliver_result st w ~key:job.jkey ~cached:false payload)
    (List.rev job.jwaiters);
  job.jwaiters <- [];
  broadcast_progress st

(* ------------------------------------------------------------------ *)
(* Admin replies                                                        *)

let report_json st =
  let rows =
    Hashtbl.fold
      (fun (test, device, env) r acc ->
        Jsonw.Obj
          [
            ("test", Jsonw.String test);
            ("device", Jsonw.String device);
            ("env", Jsonw.String env);
            ("cells", Jsonw.Int r.r_cells);
            ("hits", Jsonw.Int r.r_hits);
            ("joined", Jsonw.Int r.r_joined);
            ("computed", Jsonw.Int r.r_computed);
            ("kills", Jsonw.Int r.r_kills);
            ("instances", Jsonw.Int r.r_instances);
            ("simTimeS", Jsonw.Float r.r_sim_time);
          ]
        :: acc)
      st.rows []
  in
  (* Deterministic order for clients that diff reports. *)
  let key_of = function
    | Jsonw.Obj (("test", Jsonw.String t) :: ("device", Jsonw.String d) :: ("env", Jsonw.String e) :: _)
      ->
        (t, d, e)
    | _ -> ("", "", "")
  in
  let rows = List.sort (fun a b -> compare (key_of a) (key_of b)) rows in
  Jsonw.Obj
    [
      ("uptimeS", Jsonw.Float (Unix.gettimeofday () -. st.started));
      ("store", Jsonw.Obj [ ("dir", Jsonw.String (Store.dir st.store));
                            ("records", Jsonw.Int (Store.count st.store)) ]);
      ( "totals",
        Jsonw.Obj
          [
            ("sessions", Jsonw.Int st.n_sessions);
            ("submissions", Jsonw.Int st.n_submissions);
            ("cells", Jsonw.Int st.n_cells);
            ("hits", Jsonw.Int st.n_hits);
            ("joined", Jsonw.Int st.n_joined);
            ("computed", Jsonw.Int st.n_computed);
          ] );
      (* Process-wide engine counters: schema-image and prefix/workspace
         reuse across everything this daemon computed so far. *)
      ( "engine",
        let e = Runner.engine_stats () in
        Jsonw.Obj
          [
            ("kernelsCompiled", Jsonw.Int e.Runner.kernels_compiled);
            ("schemaReuses", Jsonw.Int e.Runner.schema_reuses);
            ("workspacesBuilt", Jsonw.Int e.Runner.workspaces_built);
            ("workspaceReuses", Jsonw.Int e.Runner.workspace_reuses);
          ] );
      ("rows", Jsonw.List rows);
    ]

let queue_json st =
  let job_json j =
    let t, d, e = j.jlabel in
    Jsonw.Obj
      [
        ("key", Jsonw.String (Key.to_hex j.jkey));
        ("kind", Jsonw.String j.jkind);
        ("test", Jsonw.String t);
        ("device", Jsonw.String d);
        ("env", Jsonw.String e);
        ("priority", Jsonw.Int j.jpriority);
        ("waiters", Jsonw.Int (List.length j.jwaiters));
        ("client", Jsonw.String j.jowner.cname);
      ]
  in
  let queued, inflight =
    Hashtbl.fold
      (fun _ j (q, f) -> if j.jrunning then (q, j :: f) else (j :: q, f))
      st.jobs ([], [])
  in
  let by_seq = List.sort (fun a b -> compare a.jseq b.jseq) in
  Jsonw.Obj
    [
      ("draining", Jsonw.Bool (not st.accepting));
      (* Worker domains alive now: [jobs - 1] while cells are queued, else 0. *)
      ("workers", Jsonw.Int (match st.pool with Some p -> Pool.domains p - 1 | None -> 0));
      ("queued", Jsonw.List (List.map job_json (by_seq queued)));
      ("inflight", Jsonw.List (List.map job_json (by_seq inflight)));
    ]

(* ------------------------------------------------------------------ *)
(* Connection lifecycle                                                 *)

let drop_conn st conn reason =
  if conn.alive then begin
    conn.alive <- false;
    log st "disconnect %s (%s)" conn.cname reason;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    (* Its interest goes with it: remove its waiters everywhere; a
       queued job that keeps waiters from other clients is re-homed to
       the first of them so fairness still accounts it to a live
       client. *)
    Hashtbl.iter
      (fun _ j ->
        j.jwaiters <- List.filter (fun w -> w.wsub.sconn != conn) j.jwaiters;
        if j.jowner == conn && j.jwaiters <> [] then begin
          let heir = (List.hd j.jwaiters).wsub.sconn in
          j.jowner <- heir;
          heir.pending <- heir.pending @ [ j ]
        end)
      st.jobs;
    conn.pending <- [];
    List.iter (fun c -> prune_pending st c) st.conns
  end

let handle_msg st conn msg =
  match msg with
  | Proto.Hello { client; protocol } ->
      conn.cname <- (if client = "" then conn.peer else client);
      if protocol <> Proto.protocol_version then begin
        enqueue conn
          (Proto.Error
             {
               id = None;
               message =
                 Printf.sprintf "protocol mismatch: daemon speaks %d, client sent %d"
                   Proto.protocol_version protocol;
             });
        enqueue conn (Proto.Bye { reason = "protocol mismatch" })
      end
      else
        enqueue conn
          (Proto.Welcome
             {
               protocol = Proto.protocol_version;
               key_version = Key.code_version;
               server = "mcmutants";
             })
  | Proto.Submit { id; kind; priority; cells } -> handle_submit st conn ~id ~kind ~priority cells
  | Proto.Watch ->
      conn.watching <- true;
      enqueue conn (progress_event st)
  | Proto.Report -> enqueue conn (Proto.Reply { op = "report"; data = report_json st })
  | Proto.Queue -> enqueue conn (Proto.Reply { op = "queue"; data = queue_json st })
  | Proto.Drain ->
      st.accepting <- false;
      log st "drain requested by %s" conn.cname;
      enqueue conn
        (Proto.Reply
           {
             op = "drain";
             data = Jsonw.Obj [ ("queued", Jsonw.Int (List.length (queued_jobs st))) ];
           })
  | Proto.Shutdown ->
      log st "shutdown requested by %s" conn.cname;
      st.stopping <- true
  | Proto.Ping -> enqueue conn Proto.Pong

let handle_line st conn line =
  if String.trim line <> "" then
    match Proto.client_of_line line with
    | Ok msg -> handle_msg st conn msg
    | Error e -> enqueue conn (Proto.Error { id = None; message = "bad message: " ^ e })

(* ------------------------------------------------------------------ *)
(* Sockets                                                              *)

let listen_unix path =
  (* A leftover socket file from a SIGKILLed daemon would make bind fail
     forever; only a socket that answers is a live daemon. *)
  (if Sys.file_exists path then
     let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     match Unix.connect probe (Unix.ADDR_UNIX path) with
     | () ->
         Unix.close probe;
         failwith
           (Printf.sprintf
              "Mcm_serve: %s is in use by a live daemon; shut it down or pick another socket"
              path)
     | exception Unix.Unix_error _ ->
         Unix.close probe;
         Sys.remove path);
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

let flush_out st conn =
  let len = Buffer.length conn.out in
  if conn.alive && len > conn.out_off then begin
    let data = Buffer.to_bytes conn.out in
    match Unix.write conn.fd data conn.out_off (len - conn.out_off) with
    | n ->
        conn.out_off <- conn.out_off + n;
        if conn.out_off = len then begin
          Buffer.clear conn.out;
          conn.out_off <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        drop_conn st conn "write failed"
  end

let read_chunk st conn =
  let buf = Bytes.create 65536 in
  match Unix.read conn.fd buf 0 (Bytes.length buf) with
  | 0 -> drop_conn st conn "eof"
  | n ->
      List.iter
        (fun line -> if conn.alive then handle_line st conn line)
        (Proto.Frame.feed conn.frame (Bytes.sub_string buf 0 n))
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> drop_conn st conn "reset"

(* ------------------------------------------------------------------ *)
(* The daemon                                                           *)

let run ?(on_ready = fun () -> ()) cfg =
  let stop_signal = ref false in
  let previous_handlers =
    List.map
      (fun s ->
        (s, Sys.signal s (Sys.Signal_handle (fun _ -> stop_signal := true))))
      [ Sys.sigterm; Sys.sigint ]
  in
  let previous_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let restore_signals () =
    List.iter (fun (s, h) -> Sys.set_signal s h) previous_handlers;
    Sys.set_signal Sys.sigpipe previous_pipe
  in
  let store = Store.open_store cfg.store_dir in
  List.iter (fun w -> Printf.eprintf "serve: store: %s\n%!" w) (Store.warnings store);
  let unix_listener = listen_unix cfg.socket_path in
  let tcp_listener = Option.map listen_tcp cfg.port in
  let listeners = unix_listener :: Option.to_list tcp_listener in
  let st =
    {
      cfg;
      store;
      listeners;
      conns = [];
      jobs = Hashtbl.create 64;
      seq = 0;
      tick = 0;
      accepting = true;
      stopping = false;
      pool = None;
      started = Unix.gettimeofday ();
      n_sessions = 0;
      n_submissions = 0;
      n_cells = 0;
      n_hits = 0;
      n_joined = 0;
      n_computed = 0;
      rows = Hashtbl.create 64;
      sources = Hashtbl.create 16;
    }
  in
  let next_cid = ref 0 in
  let accept_on listener =
    match Unix.accept ~cloexec:true listener with
    | fd, addr ->
        Unix.set_nonblock fd;
        incr next_cid;
        st.n_sessions <- st.n_sessions + 1;
        let peer =
          match addr with
          | Unix.ADDR_UNIX _ -> Printf.sprintf "unix#%d" !next_cid
          | Unix.ADDR_INET (ip, port) ->
              Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port
        in
        let conn =
          {
            fd;
            cid = !next_cid;
            peer;
            frame = Proto.Frame.create ();
            out = Buffer.create 1024;
            out_off = 0;
            cname = peer;
            alive = true;
            watching = false;
            pending = [];
            last_dispatch = 0;
          }
        in
        st.conns <- st.conns @ [ conn ];
        log st "accept %s" peer
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  Printf.eprintf "serve: listening on %s%s (store %s, %d job(s))\n%!" cfg.socket_path
    (match cfg.port with Some p -> Printf.sprintf " and 127.0.0.1:%d" p | None -> "")
    cfg.store_dir cfg.jobs;
  on_ready ();
  let cleanup_dead () =
    st.conns <- List.filter (fun c -> c.alive || Buffer.length c.out > 0) st.conns
  in
  (try
     while not st.stopping do
       if !stop_signal then st.stopping <- true
       else begin
         cleanup_dead ();
         let client_fds = List.filter_map (fun c -> if c.alive then Some c.fd else None) st.conns in
         let write_fds =
           List.filter_map
             (fun c -> if c.alive && Buffer.length c.out > c.out_off then Some c.fd else None)
             st.conns
         in
         let work_pending = pick_job st <> None in
         let timeout = if work_pending then 0. else 0.5 in
         let readable, writable, _ =
           try Unix.select (st.listeners @ client_fds) write_fds [] timeout
           with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
         in
         List.iter (fun l -> if List.mem l readable then accept_on l) st.listeners;
         List.iter
           (fun c -> if c.alive && List.mem c.fd readable then read_chunk st c)
           st.conns;
         List.iter
           (fun c -> if c.alive && List.mem c.fd writable then flush_out st c)
           st.conns;
         (* One cell per iteration: compute interleaves with I/O so a
            submission arriving mid-grid can still join in-flight
            cells. *)
         (match pick_job st with
         | Some (conn, job) -> execute_job st conn job
         | None -> ());
         (* The queue is empty: hand the worker domains back before the
            results go out, so a client's next request (often all warm
            hits) never waits for the join. *)
         if Option.is_some st.pool && pick_job st = None then release_pool st;
         List.iter (fun c -> flush_out st c) st.conns
       end
     done
   with e ->
     restore_signals ();
     (try release_pool st with _ -> ());
     (try Store.close store with _ -> ());
     List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) st.listeners;
     (try Sys.remove cfg.socket_path with Sys_error _ -> ());
     raise e);
  (* Graceful exit: fail the waiters of anything still queued, farewell
     every client, push the last bytes out, release the domains and the
     store. *)
  release_pool st;
  Hashtbl.iter
    (fun _ j ->
      List.iter
        (fun w ->
          enqueue w.wsub.sconn
            (Proto.Error { id = Some w.wsub.sid; message = "daemon shut down before this cell ran" }))
        j.jwaiters)
    st.jobs;
  List.iter (fun c -> enqueue c (Proto.Bye { reason = "shutdown" })) st.conns;
  List.iter
    (fun c ->
      (* Final flush is best-effort but persistent: give each client one
         blocking-ish drain so Bye/Error actually leave the machine. *)
      (try Unix.clear_nonblock c.fd with Unix.Unix_error _ -> ());
      flush_out st c;
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      c.alive <- false)
    (List.filter (fun c -> c.alive) st.conns);
  Store.close store;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) st.listeners;
  (try Sys.remove cfg.socket_path with Sys_error _ -> ());
  restore_signals ();
  log st "shutdown: %d session(s), %d hit(s), %d computed, %d joined" st.n_sessions st.n_hits
    st.n_computed st.n_joined;
  { served = st.n_hits; computed = st.n_computed; joined = st.n_joined; sessions = st.n_sessions }

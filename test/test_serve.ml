(* Tests for mcm_serve: the JSONL wire protocol (qcheck round-trip
   properties over hostile strings and non-finite floats, incremental
   framing under arbitrary chunking), the read-only store snapshot that
   backs lock-free `cache stats` while a daemon writes, and the daemon
   itself — forked as a real process and driven over its Unix socket:
   warm hits, cross-client dedup with bit-identical payloads,
   kill-and-resume (SIGKILL mid-grid, restart, only missing cells
   recompute), drain and graceful shutdown. *)

module Proto = Mcm_serve.Proto
module Server = Mcm_serve.Server
module Client = Mcm_serve.Client
module Key = Mcm_campaign.Key
module Store = Mcm_campaign.Store
module Jsonw = Mcm_util.Jsonw
module Params = Mcm_testenv.Params
module Request = Mcm_testenv.Request
module Runner = Mcm_testenv.Runner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let dir_counter = ref 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_dir f =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcm-serve-test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let append_raw path s =
  let oc = open_out_gen [ Open_append; Open_wronly; Open_binary; Open_creat ] 0o644 path in
  output_string oc s;
  close_out oc

(* -------------------------------------------------------------------- *)
(* Protocol round-trips                                                   *)

(* Strings with every hostile byte class the escaper handles: control
   characters, quotes, backslashes, newlines (the framing delimiter
   itself) and high bytes. *)
let gen_string =
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 30))

let gen_float =
  QCheck2.Gen.(
    oneof
      [
        float;
        oneofl [ nan; infinity; neg_infinity; 0.; -0.; 1e-300; 1.7976931348623157e308 ];
      ])

let gen_json =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        let scalar =
          oneof
            [
              return Jsonw.Null;
              map (fun b -> Jsonw.Bool b) bool;
              map (fun i -> Jsonw.Int i) int;
              map (fun f -> Jsonw.Float f) gen_float;
              map (fun s -> Jsonw.String s) gen_string;
            ]
        in
        if n <= 0 then scalar
        else
          oneof
            [
              scalar;
              map (fun l -> Jsonw.List l) (list_size (int_bound 3) (self (n / 2)));
              map
                (fun l -> Jsonw.Obj l)
                (list_size (int_bound 3) (pair gen_string (self (n / 2))));
            ]))

let gen_env = QCheck2.Gen.oneofl [ Params.site_baseline; Params.scaled Params.pte_baseline 0.02 ]

let gen_cell =
  QCheck2.Gen.(
    map
      (fun (test, (device, bugs, env, iterations, seed, engine)) ->
        {
          Proto.c_test = test;
          c_device = device;
          c_bugs = bugs;
          c_env = env;
          c_iterations = iterations;
          c_seed = seed;
          c_engine = engine;
        })
      (pair
         (oneof
            [
              map (fun s -> Proto.Name s) gen_string;
              map (fun s -> Proto.Source s) gen_string;
            ])
         (tup6 gen_string bool gen_env nat nat
            (oneofl [ Request.Interpreter; Request.Kernel ]))))

let gen_client_msg =
  QCheck2.Gen.(
    oneof
      [
        map (fun (c, p) -> Proto.Hello { client = c; protocol = p }) (pair gen_string nat);
        map
          (fun (id, kind, priority, cells) -> Proto.Submit { id; kind; priority; cells })
          (tup4 gen_string gen_string int (list_size (int_bound 4) gen_cell));
        oneofl [ Proto.Watch; Proto.Report; Proto.Queue; Proto.Drain; Proto.Shutdown; Proto.Ping ];
      ])

let gen_server_msg =
  QCheck2.Gen.(
    oneof
      [
        map
          (fun (p, k, s) -> Proto.Welcome { protocol = p; key_version = k; server = s })
          (tup3 nat gen_string gen_string);
        map
          (fun (id, total, hits, queued, joined) -> Proto.Ack { id; total; hits; queued; joined })
          (tup5 gen_string nat nat nat nat);
        map
          (fun (id, cell, key, cached, payload) ->
            Proto.Result { id; cell; key; cached; payload })
          (tup5 gen_string nat gen_string bool gen_json);
        map (fun id -> Proto.Done { id }) gen_string;
        map
          (fun (queued, inflight, clients, served, computed) ->
            Proto.Progress { queued; inflight; clients; served; computed })
          (tup5 nat nat nat nat nat);
        map (fun (op, data) -> Proto.Reply { op; data }) (pair gen_string gen_json);
        return Proto.Pong;
        map (fun reason -> Proto.Bye { reason }) gen_string;
        map
          (fun (id, message) -> Proto.Error { id; message })
          (pair (option gen_string) gen_string);
      ])

(* Print/parse idempotence is the protocol's stability contract: decoded
   values need not compare equal (a NaN payload never does), but the
   line they re-serialize to must be byte-identical. *)
let prop_client_roundtrip =
  QCheck2.Test.make ~name:"client line round-trip" ~count:500 gen_client_msg (fun msg ->
      let line = Proto.client_to_line msg in
      (String.length line > 0 && line.[String.length line - 1] = '\n')
      &&
      match Proto.client_of_line line with
      | Error e -> QCheck2.Test.fail_reportf "parse failed: %s on %s" e line
      | Ok msg' -> Proto.client_to_line msg' = line)

let prop_server_roundtrip =
  QCheck2.Test.make ~name:"server line round-trip" ~count:500
    ~print:(fun m -> String.escaped (Proto.server_to_line m))
    gen_server_msg (fun msg ->
      let line = Proto.server_to_line msg in
      (not (String.contains (String.sub line 0 (String.length line - 1)) '\n'))
      &&
      match Proto.server_of_line line with
      | Error e -> QCheck2.Test.fail_reportf "parse failed: %s on %s" e line
      | Ok msg' -> Proto.server_to_line msg' = line)

(* Framing: any chunking of a message stream reassembles exactly the
   original lines, in order, regardless of where the cuts fall. *)
let prop_frame_chunking =
  QCheck2.Test.make ~name:"frame reassembles any chunking" ~count:200
    QCheck2.Gen.(pair (list_size (int_range 1 6) gen_server_msg) (list_size (int_bound 20) (int_range 1 7)))
    (fun (msgs, cuts) ->
      let stream = String.concat "" (List.map Proto.server_to_line msgs) in
      let frame = Proto.Frame.create () in
      let lines = ref [] in
      let pos = ref 0 in
      let cuts = ref cuts in
      while !pos < String.length stream do
        let step =
          match !cuts with
          | c :: rest ->
              cuts := rest;
              min c (String.length stream - !pos)
          | [] -> String.length stream - !pos
        in
        lines := !lines @ Proto.Frame.feed frame (String.sub stream !pos step);
        pos := !pos + step
      done;
      Proto.Frame.pending frame = 0
      && List.map (fun m -> Proto.server_to_line m) msgs
         = List.map (fun l -> l ^ "\n") !lines)

(* -------------------------------------------------------------------- *)
(* Read-only store snapshots                                              *)

let k_of i = Key.of_string (Printf.sprintf "key-%d" i)
let v_of i = Jsonw.Obj [ ("v", Jsonw.Int i) ]

(* The regression this PR fixes: a reader must be able to open a store
   while a writer (sweep or daemon) holds DIR/LOCK. The reader is a real
   fork so the POSIX lock is actually foreign to it. *)
let test_ro_open_while_locked () =
  with_temp_dir (fun dir ->
      Store.with_store dir (fun store ->
          Store.add store (k_of 1) (v_of 1);
          Store.add store (k_of 2) (v_of 2);
          Store.flush store;
          match Unix.fork () with
          | 0 ->
              let code =
                match Store.Ro.open_ro dir with
                | ro ->
                    if
                      Store.Ro.count ro = 2
                      && Store.Ro.find ro (k_of 1) = Some (v_of 1)
                      && Store.Ro.mem ro (k_of 2)
                      && not (Store.Ro.mem ro (k_of 3))
                    then 0
                    else 1
                | exception _ -> 2
              in
              Unix._exit code
          | pid -> (
              match snd (Unix.waitpid [] pid) with
              | Unix.WEXITED 0 -> ()
              | Unix.WEXITED 1 -> Alcotest.fail "snapshot saw wrong contents"
              | Unix.WEXITED 2 -> Alcotest.fail "read-only open failed under the writer lock"
              | _ -> Alcotest.fail "reader child crashed")))

(* Mid-append: a torn trailing line (the writer is between write and
   flush, or crashed) is skipped — never repaired — and everything
   before it is served. *)
let test_ro_torn_tail () =
  with_temp_dir (fun dir ->
      Store.with_store dir (fun store ->
          Store.add store (k_of 1) (v_of 1);
          Store.flush store);
      let seg = Filename.concat dir "segment-000000.jsonl" in
      let before = (Unix.stat seg).Unix.st_size in
      append_raw seg "{\"k\":\"0123456789abcdef\",\"v\":{\"half";
      let ro = Store.Ro.open_ro dir in
      check_int "only the complete record" 1 (Store.Ro.count ro);
      check "warns about the tail" true (Store.Ro.warnings ro <> []);
      check "tail left for the writer" true ((Unix.stat seg).Unix.st_size > before))

(* -------------------------------------------------------------------- *)
(* The daemon, forked                                                     *)

let test_env = Params.scaled Params.pte_baseline 0.02

let mk_cell ?(iterations = 60) ?(seed = 11) name =
  {
    Proto.c_test = Proto.Name name;
    c_device = "nvidia";
    c_bugs = false;
    c_env = test_env;
    c_iterations = iterations;
    c_seed = seed;
    c_engine = Request.Kernel;
  }

(* -------------------------------------------------------------------- *)
(* Bad cells are refused at decode                                        *)

(* A parallel env with zero threads per workgroup divides by zero in
   role assignment, and a negative iteration count makes the pool
   refuse the task; both used to escape the daemon's loop. They must be
   decode errors naming the field instead. *)
let bad_env = { (Params.scaled Params.pte_baseline 0.02) with Params.threads_per_workgroup = 0 }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let expect_error what field = function
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error e -> check (Printf.sprintf "%s: error %S names %s" what e field) true (contains e field)

let test_env_layout_rejected () =
  let with_field name value =
    match Params.to_json (Params.scaled Params.pte_baseline 0.02) with
    | Jsonw.Obj fields ->
        Jsonw.Obj (List.map (fun (k, v) -> if k = name then (k, Jsonw.Int value) else (k, v)) fields)
    | _ -> Alcotest.fail "env is not an object"
  in
  List.iter
    (fun (field, value) ->
      expect_error
        (Printf.sprintf "%s = %d" field value)
        (Printf.sprintf "%S" field)
        (Params.of_json (with_field field value)))
    [ ("threadsPerWorkgroup", 0); ("threadsPerWorkgroup", -4); ("testingWorkgroups", 0) ];
  let cell = { (mk_cell "MP-CO-m") with Proto.c_env = bad_env } in
  expect_error "cell with a zero-thread env" "threadsPerWorkgroup"
    (Proto.cell_of_json (Proto.cell_to_json cell))

let test_negative_iterations_rejected () =
  let cell = mk_cell ~iterations:(-1) "MP-CO-m" in
  expect_error "cell with iterations -1" "iterations" (Proto.cell_of_json (Proto.cell_to_json cell));
  expect_error "submit line with iterations -1" "iterations"
    (Proto.client_of_line
       (Proto.client_to_line
          (Proto.Submit { id = "bad"; kind = "run"; priority = 0; cells = [ cell ] })));
  (* Zero iterations is an empty campaign, not an error. *)
  match Proto.cell_of_json (Proto.cell_to_json (mk_cell ~iterations:0 "MP-CO-m")) with
  | Ok c -> check_int "zero iterations kept" 0 c.Proto.c_iterations
  | Error e -> Alcotest.failf "zero iterations refused: %s" e

(* A grid sizes per-domain buffers, so the daemon refuses any above a
   fixed ceiling, naming both layout fields; 2^31 x 2^31 overflows a
   63-bit product, so the check must not multiply. *)
let test_oversized_grid_rejected () =
  let grid workgroups threads =
    {
      (mk_cell "MP-CO-m") with
      Proto.c_env =
        { test_env with Params.testing_workgroups = workgroups; threads_per_workgroup = threads };
    }
  in
  let decode cell = Proto.cell_of_json (Proto.cell_to_json cell) in
  check_int "the ceiling" (1 lsl 20) Proto.max_grid_threads;
  List.iter
    (fun (w, t) ->
      match decode (grid w t) with
      | Ok c -> check_int "layout kept" w c.Proto.c_env.Params.testing_workgroups
      | Error e -> Alcotest.failf "%d x %d refused at the ceiling: %s" w t e)
    [ (1024, 1024); (4096, 256); (1 lsl 20, 1); (1, 1 lsl 20) ];
  List.iter
    (fun (w, t) ->
      let what = Printf.sprintf "%d x %d" w t in
      expect_error what "\"testingWorkgroups\"" (decode (grid w t));
      expect_error what "\"threadsPerWorkgroup\"" (decode (grid w t)))
    [ ((1 lsl 20) + 1, 1); (17, 61681); (1025, 1024); (1 lsl 31, 1 lsl 31) ]

(* A histogram cell classifies every candidate execution and every
   thread order of its test, both factorial in its size, so the daemon
   refuses one above a fixed ceiling, naming "litmus" and the count. *)

(* [threads] threads, each storing [stores] distinct values to x. *)
let stores_source ~threads ~stores =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "test W%dx%d\nmodel sc-per-loc\nlocations x\n" threads stores);
  for t = 0 to threads - 1 do
    Buffer.add_string buf (Printf.sprintf "thread P%d\n" t);
    for i = 1 to stores do
      Buffer.add_string buf (Printf.sprintf "  store x %d\n" ((t * stores) + i))
    done
  done;
  Buffer.add_string buf "target x == 1\n";
  Buffer.contents buf

let parsed src =
  match Mcm_litmus.Parse.parse src with Ok t -> t | Error e -> Alcotest.failf "parse: %s" e

(* [n] threads, each storing once to its own location: one candidate,
   n! thread orders. *)
let one_store_per_thread n =
  {
    Mcm_litmus.Litmus.name = Printf.sprintf "T%d" n;
    family = "sizing";
    model = Mcm_memmodel.Model.Sc_per_location;
    threads = Array.init n (fun t -> [ Mcm_litmus.Instr.store ~loc:t ~value:1 () ]);
    nlocs = n;
    target = (fun _ -> false);
    target_desc = "none";
  }

let test_histogram_ceiling () =
  check_int "the ceiling" 65_536 Server.max_histogram_work;
  let accepted what t =
    match Server.histogram_admissible t with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s refused: %s" what e
  in
  let refused what count t =
    expect_error what "\"litmus\"" (Server.histogram_admissible t);
    expect_error what count (Server.histogram_admissible t)
  in
  let two_plus_two_w = (Option.get (Mcm_core.Suite.find "2+2W-CO")).Mcm_core.Suite.test in
  check_int "2+2W-CO candidates" 600 (Mcm_litmus.Enumerate.count two_plus_two_w);
  accepted "2+2W-CO (600 candidates)" two_plus_two_w;
  accepted "8 writes (40320 candidates)" (parsed (stores_source ~threads:1 ~stores:8));
  accepted "8 threads (40320 orders)" (one_store_per_thread 8);
  refused "9 writes" "362880" (parsed (stores_source ~threads:1 ~stores:9));
  refused "21 writes" (string_of_int max_int) (parsed (stores_source ~threads:1 ~stores:21));
  refused "9 threads" "362880" (one_store_per_thread 9)

let test_valid_envs_roundtrip () =
  let g = Mcm_util.Prng.create 5 in
  let randoms =
    List.concat
      (List.init 100 (fun _ ->
           List.concat_map
             (fun mode ->
               let env = Params.random g mode in
               [ env; Params.scaled env 0.01; Params.with_scope env Params.Intra_workgroup ])
             [ Params.Single; Params.Parallel ]))
  in
  List.iter
    (fun env ->
      match Params.of_json (Params.to_json env) with
      | Ok env' -> check "env round-trips" true (env = env')
      | Error e -> Alcotest.failf "valid env refused: %s" e)
    ([ Params.site_baseline; Params.pte_baseline; test_env ] @ randoms)

let spawn_daemon ?(jobs = 2) ~dir () =
  let socket = Filename.concat dir "serve.sock" in
  let store = Filename.concat dir "store" in
  match Unix.fork () with
  | 0 ->
      (* Child: run the daemon; _exit skips the parent's atexit and
         alcotest reporting. Quiet stderr keeps test output readable. *)
      let code =
        try
          let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
          Unix.dup2 devnull Unix.stderr;
          ignore
            (Server.run
               { Server.store_dir = store; socket_path = socket; port = None; jobs; verbose = false });
          0
        with _ -> 1
      in
      Unix._exit code
  | pid -> (pid, socket, store)

let wait_daemon pid =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "daemon exited %d" n
  | _ -> Alcotest.fail "daemon crashed"

let connect_ok ?name socket =
  match Client.connect ?name socket with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let shutdown_daemon socket pid =
  let c = connect_ok ~name:"shutdown" socket in
  Client.send c Proto.Shutdown;
  (match Client.recv c with Ok (Proto.Bye _) | Error _ -> () | Ok _ -> ());
  Client.close c;
  wait_daemon pid

let payload_str r = Jsonw.to_string r.Client.payload

(* A raw submission driven by hand (Client.submit hides the Ack split
   timing we need): send, then collect Ack/Result/Done for [id]. *)
let collect client id n =
  let results = Array.make n None in
  let ack = ref None in
  let rec wait () =
    match Client.recv client with
    | Error e -> Alcotest.failf "recv: %s" e
    | Ok (Proto.Ack { id = aid; hits; queued; joined; _ }) when aid = id ->
        ack := Some (hits, queued, joined);
        wait ()
    | Ok (Proto.Result { id = rid; cell; key; cached; payload }) when rid = id ->
        results.(cell) <- Some { Client.key; cached; payload };
        wait ()
    | Ok (Proto.Done { id = did }) when did = id -> ()
    | Ok (Proto.Error { message; _ }) -> Alcotest.failf "daemon error: %s" message
    | Ok _ -> wait ()
  in
  wait ();
  match !ack with
  | None -> Alcotest.fail "no ack"
  | Some (hits, queued, joined) ->
      (hits, queued, joined, Array.map (fun r -> Option.get r) results)

(* Two clients submit the same 2-cell grid back to back. Whatever the
   interleaving — B joins A's queued cells, or warm-hits ones A already
   forced — each distinct cell is computed exactly once and both clients
   receive bit-identical payloads. *)
let test_two_clients_dedup () =
  with_temp_dir (fun dir ->
      let pid, socket, _store = spawn_daemon ~dir () in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists socket then shutdown_daemon socket pid)
        (fun () ->
          let a = connect_ok ~name:"a" socket in
          let b = connect_ok ~name:"b" socket in
          let cells = [ mk_cell "MP-CO-m"; mk_cell "LB-CO-m" ] in
          Client.send a (Proto.Submit { id = "grid-a"; kind = "run"; priority = 0; cells });
          Client.send b (Proto.Submit { id = "grid-b"; kind = "run"; priority = 0; cells });
          let a_hits, a_queued, a_joined, a_res = collect a "grid-a" 2 in
          let b_hits, b_queued, b_joined, b_res = collect b "grid-b" 2 in
          check_int "A misses cold" 0 a_hits;
          check_int "A queues both" 2 a_queued;
          check_int "A joins nothing" 0 a_joined;
          check_int "B queues nothing (dedup)" 0 b_queued;
          check_int "B fully deduplicated" 2 (b_hits + b_joined);
          check "A computed, not cached" true (Array.for_all (fun r -> not r.Client.cached) a_res);
          for i = 0 to 1 do
            check_str
              (Printf.sprintf "cell %d bit-identical across clients" i)
              (payload_str a_res.(i))
              (payload_str b_res.(i));
            check_str
              (Printf.sprintf "cell %d same key" i)
              a_res.(i).Client.key b_res.(i).Client.key
          done;
          (* The daemon's own ledger agrees: 4 cells served, 2 computed. *)
          Client.send a Proto.Report;
          let rec reply () =
            match Client.recv a with
            | Ok (Proto.Reply { op = "report"; data }) -> data
            | Ok _ -> reply ()
            | Error e -> Alcotest.failf "report: %s" e
          in
          let data = reply () in
          let module Jsonp = Mcm_util.Jsonp in
          let total name =
            Option.value ~default:(-1)
              (Option.bind
                 (Option.bind (Jsonp.member "totals" data) (Jsonp.member name))
                 Jsonp.to_int)
          in
          check_int "4 cells submitted" 4 (total "cells");
          check_int "each distinct cell computed once" 2 (total "computed");
          check_int "dedup accounted" 2 (total "hits" + total "joined");
          Client.close a;
          Client.close b;
          shutdown_daemon socket pid))

(* Warm restart: a second daemon over the same store answers the whole
   grid from disk. *)
let test_warm_across_restart () =
  with_temp_dir (fun dir ->
      let cells = [ mk_cell "MP-CO-m"; mk_cell "SB-CO-m" ] in
      let pid, socket, _store = spawn_daemon ~dir () in
      let a = connect_ok socket in
      let _, _, _, cold =
        Client.send a (Proto.Submit { id = "g1"; kind = "run"; priority = 0; cells });
        collect a "g1" 2
      in
      Client.close a;
      shutdown_daemon socket pid;
      let pid, socket, _store = spawn_daemon ~dir () in
      let b = connect_ok socket in
      Client.send b (Proto.Submit { id = "g2"; kind = "run"; priority = 0; cells });
      let hits, queued, _, warm = collect b "g2" 2 in
      check_int "all warm" 2 hits;
      check_int "nothing queued" 0 queued;
      check "served from cache" true (Array.for_all (fun r -> r.Client.cached) warm);
      for i = 0 to 1 do
        check_str "restart-stable payload" (payload_str cold.(i)) (payload_str warm.(i))
      done;
      Client.close b;
      shutdown_daemon socket pid)

(* SIGKILL mid-grid. Every result a client saw was fsynced first, so a
   restarted daemon warm-hits exactly those cells (the stale socket file
   the kill left behind must not stop it from binding). *)
let test_kill_and_resume () =
  with_temp_dir (fun dir ->
      let cells =
        [ mk_cell "MP-CO-m"; mk_cell "LB-CO-m"; mk_cell "SB-CO-m"; mk_cell "S-CO-m" ]
      in
      let pid, socket, store = spawn_daemon ~dir () in
      let a = connect_ok socket in
      Client.send a (Proto.Submit { id = "g1"; kind = "run"; priority = 0; cells });
      (* Take the first delivered result, then kill the daemon cold. *)
      let first = ref None in
      let rec until_first () =
        match Client.recv a with
        | Ok (Proto.Result { cell; payload; _ }) -> first := Some (cell, payload)
        | Ok _ -> until_first ()
        | Error e -> Alcotest.failf "recv: %s" e
      in
      until_first ();
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Client.close a;
      check "socket file left behind by SIGKILL" true (Sys.file_exists socket);
      (* The delivered cell is on disk despite the kill. *)
      let ro = Store.Ro.open_ro store in
      let stored = Store.Ro.count ro in
      check "delivered results were durable" true (stored >= 1);
      (* Restart over the stale socket; resubmit the same grid. *)
      let pid, socket, _store = spawn_daemon ~dir () in
      let b = connect_ok socket in
      Client.send b (Proto.Submit { id = "g2"; kind = "run"; priority = 0; cells });
      let hits, queued, joined, res = collect b "g2" 4 in
      check_int "stored cells warm-hit" stored hits;
      check_int "only missing cells re-execute" (4 - stored) queued;
      check_int "no joins" 0 joined;
      (* The pre-kill result is bit-identical on resume. *)
      (match !first with
      | Some (cell, payload) ->
          check "pre-kill cell served from cache" true res.(cell).Client.cached;
          check_str "bit-identical across the kill" (Jsonw.to_string payload)
            (payload_str res.(cell))
      | None -> Alcotest.fail "no result before the kill");
      Client.close b;
      shutdown_daemon socket pid)

(* Drain refuses new submissions but still serves admin traffic;
   shutdown farewells cleanly. *)
let test_drain_and_shutdown () =
  with_temp_dir (fun dir ->
      let pid, socket, _store = spawn_daemon ~dir () in
      let c = connect_ok socket in
      Client.send c Proto.Drain;
      (let rec drained () =
         match Client.recv c with
         | Ok (Proto.Reply { op = "drain"; _ }) -> ()
         | Ok _ -> drained ()
         | Error e -> Alcotest.failf "drain: %s" e
       in
       drained ());
      Client.send c (Proto.Submit { id = "late"; kind = "run"; priority = 0; cells = [ mk_cell "MP-CO-m" ] });
      (match Client.recv c with
      | Ok (Proto.Error { id = Some "late"; _ }) -> ()
      | Ok m -> Alcotest.failf "draining daemon accepted a submission: %s" (Proto.server_to_line m)
      | Error e -> Alcotest.failf "recv: %s" e);
      Client.send c Proto.Ping;
      (match Client.recv c with
      | Ok Proto.Pong -> ()
      | _ -> Alcotest.fail "draining daemon must still pong");
      Client.send c Proto.Shutdown;
      (match Client.recv c with
      | Ok (Proto.Bye _) | Error _ -> ()
      | Ok m -> Alcotest.failf "expected bye, got %s" (Proto.server_to_line m));
      Client.close c;
      wait_daemon pid;
      check "socket removed on graceful exit" false (Sys.file_exists socket))

(* One client's bad cells each get an error reply naming every one of
   their [fields]; the daemon keeps serving that client and the next. *)
let bad_cells_answered cases () =
  with_temp_dir (fun dir ->
      let pid, socket, _store = spawn_daemon ~dir () in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists socket then shutdown_daemon socket pid)
        (fun () ->
          let a = connect_ok ~name:"bad" socket in
          let rec error_reply () =
            match Client.recv a with
            | Ok (Proto.Error { message; _ }) -> message
            | Ok _ -> error_reply ()
            | Error e -> Alcotest.failf "daemon gone after a bad cell: %s" e
          in
          List.iter
            (fun (id, cell, fields) ->
              Client.send a (Proto.Submit { id; kind = "run"; priority = 0; cells = [ cell ] });
              let message = error_reply () in
              List.iter
                (fun field ->
                  check (Printf.sprintf "%s: %S names %s" id message field) true
                    (contains message field))
                fields)
            cases;
          (* The same connection still works... *)
          Client.send a Proto.Ping;
          let rec pong () =
            match Client.recv a with
            | Ok Proto.Pong -> ()
            | Ok _ -> pong ()
            | Error e -> Alcotest.failf "no pong: %s" e
          in
          pong ();
          Client.close a;
          (* ...and so does the next client's grid. *)
          let b = connect_ok ~name:"good" socket in
          Client.send b
            (Proto.Submit { id = "good"; kind = "run"; priority = 0; cells = [ mk_cell "MP-CO-m" ] });
          let _, _, _, res = collect b "good" 1 in
          check "good cell computed" true (not res.(0).Client.cached);
          Client.close b;
          shutdown_daemon socket pid))

let test_bad_cells_answered =
  bad_cells_answered
    [
      ("zero-threads", { (mk_cell "MP-CO-m") with Proto.c_env = bad_env }, [ "threadsPerWorkgroup" ]);
      ("negative-iterations", mk_cell ~iterations:(-1) "MP-CO-m", [ "iterations" ]);
    ]

let test_oversized_grid_answered =
  let env = { test_env with Params.testing_workgroups = 1 lsl 31; threads_per_workgroup = 1 lsl 31 } in
  bad_cells_answered
    [
      ( "oversized-grid",
        { (mk_cell "MP-CO-m") with Proto.c_env = env },
        [ "testingWorkgroups"; "threadsPerWorkgroup" ] );
    ]

(* An over-ceiling histogram cell gets an error reply; the daemon then
   answers a ping, computes another client's histogram cell, and
   computes the same source as a [run] cell, which never enumerates.
   Submitted once more, that source is a warm hit under the same key. *)
let test_factorial_histogram_answered () =
  with_temp_dir (fun dir ->
      let pid, socket, _store = spawn_daemon ~dir () in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists socket then shutdown_daemon socket pid)
        (fun () ->
          let w9 =
            {
              (mk_cell ~iterations:4 "MP-CO-m") with
              Proto.c_test = Proto.Source (stores_source ~threads:1 ~stores:9);
            }
          in
          let a = connect_ok ~name:"factorial" socket in
          Client.send a
            (Proto.Submit { id = "w9"; kind = "histogram"; priority = 0; cells = [ w9 ] });
          let rec error_reply () =
            match Client.recv a with
            | Ok (Proto.Error { message; _ }) -> message
            | Ok (Proto.Result _) -> Alcotest.fail "over-ceiling histogram computed"
            | Ok _ -> error_reply ()
            | Error e -> Alcotest.failf "daemon gone after a factorial cell: %s" e
          in
          let message = error_reply () in
          check (Printf.sprintf "%S names \"litmus\"" message) true (contains message "\"litmus\"");
          check (Printf.sprintf "%S names the count" message) true (contains message "362880");
          Client.send a Proto.Ping;
          let rec pong () =
            match Client.recv a with
            | Ok Proto.Pong -> ()
            | Ok _ -> pong ()
            | Error e -> Alcotest.failf "no pong: %s" e
          in
          pong ();
          Client.close a;
          let b = connect_ok ~name:"good" socket in
          Client.send b
            (Proto.Submit
               { id = "mp"; kind = "histogram"; priority = 0; cells = [ mk_cell "MP-CO-m" ] });
          let _, _, _, res = collect b "mp" 1 in
          check "histogram cell computed" true (not res.(0).Client.cached);
          Client.send b
            (Proto.Submit { id = "w9-run"; kind = "run"; priority = 0; cells = [ w9 ] });
          let _, _, _, res = collect b "w9-run" 1 in
          check "run cell computed" true (not res.(0).Client.cached);
          Client.send b
            (Proto.Submit { id = "w9-again"; kind = "run"; priority = 0; cells = [ w9 ] });
          let _, _, _, again = collect b "w9-again" 1 in
          check "resubmitted source is a warm hit" true again.(0).Client.cached;
          Alcotest.(check string) "under the same key" res.(0).Client.key again.(0).Client.key;
          Client.close b;
          shutdown_daemon socket pid))

(* The daemon's worker domains live while its queue is non-empty: none
   at start-up, one worker (of [jobs = 2]) while cells are queued, none
   once the queue drains, and a new pool for the next burst. The queue
   listing reports the live workers. Every payload equals a direct
   serial [Runner.exec] of its cell, and the daemon exits cleanly. *)
let test_pool_across_bursts () =
  (* Cells as (suite name, iterations, seed): iteration counts below,
     at and above the daemon's two domains. *)
  let burst_1 =
    [ ("MP-CO-m", 6, 100); ("LB-CO-m", 6, 101); ("SB-CO-m", 2, 102); ("MP-CO-m", 1, 103);
      ("S-CO-m", 8, 104) ]
  and burst_2 = [ ("S-CO-m", 5, 200); ("MP-CO-m", 5, 201); ("LB-CO-m", 3, 202) ] in
  let cell (name, iterations, seed) = mk_cell ~iterations ~seed name in
  (* The cell as the daemon resolves it, run serially in this process. *)
  let direct kind (name, iterations, seed) =
    let r =
      Request.make ~device:(Mcm_gpu.Device.make Mcm_gpu.Profile.nvidia) ~env:test_env
        ~test:(Option.get (Mcm_core.Suite.find name)).Mcm_core.Suite.test ~iterations ~seed ()
    in
    let encode c = Jsonw.to_string (Runner.encode c (Runner.exec c r Request.serial)) in
    if kind = "run" then encode Runner.Rate else encode Runner.Histogram
  in
  (* (queued cells, live workers) from a queue listing. *)
  let listing data =
    let module Jsonp = Mcm_util.Jsonp in
    let count name =
      match Jsonp.member name data with Some (Jsonw.List l) -> List.length l | _ -> -1
    in
    ( count "queued" + count "inflight",
      Option.value ~default:(-1) (Option.bind (Jsonp.member "workers" data) Jsonp.to_int) )
  in
  with_temp_dir (fun dir ->
      let pid, socket, _store = spawn_daemon ~jobs:2 ~dir () in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists socket then shutdown_daemon socket pid)
        (fun () ->
          let c = connect_ok ~name:"bursts" socket in
          let queue () =
            Client.send c Proto.Queue;
            let rec reply () =
              match Client.recv c with
              | Ok (Proto.Reply { op = "queue"; data }) -> listing data
              | Ok _ -> reply ()
              | Error e -> Alcotest.failf "queue: %s" e
            in
            reply ()
          in
          let idle what = check (what ^ ": no cells, no workers") true (queue () = (0, 0)) in
          (* Submit, list the queue once the Ack is in (mid-burst), and
             collect every result. *)
          let burst id kind cells =
            Client.send c (Proto.Submit { id; kind; priority = 0; cells = List.map cell cells });
            let results = Array.make (List.length cells) "" in
            let rec loop ~done_ ~listed =
              if not (done_ && listed) then
                match Client.recv c with
                | Error e -> Alcotest.failf "%s: %s" id e
                | Ok (Proto.Ack { queued; _ }) ->
                    check_int (id ^ ": all cold") (List.length cells) queued;
                    Client.send c Proto.Queue;
                    loop ~done_ ~listed
                | Ok (Proto.Reply { op = "queue"; data }) ->
                    let queued, workers = listing data in
                    check_int
                      (Printf.sprintf "%s: %d queued cell(s), workers" id queued)
                      (if queued > 0 then 1 else 0)
                      workers;
                    loop ~done_ ~listed:true
                | Ok (Proto.Result { id = rid; cell; payload; _ }) when rid = id ->
                    results.(cell) <- Jsonw.to_string payload;
                    loop ~done_ ~listed
                | Ok (Proto.Done { id = did }) when did = id -> loop ~done_:true ~listed
                | Ok (Proto.Error { message; _ }) -> Alcotest.failf "%s: %s" id message
                | Ok _ -> loop ~done_ ~listed
            in
            loop ~done_:false ~listed:false;
            List.iteri
              (fun i spec ->
                check_str
                  (Printf.sprintf "%s cell %d equals a direct serial Runner.exec" id i)
                  (direct kind spec) results.(i))
              cells
          in
          idle "start-up";
          burst "burst-1" "run" burst_1;
          idle "after burst 1";
          burst "burst-2" "histogram" burst_2;
          idle "after burst 2";
          Client.close c;
          shutdown_daemon socket pid))

(* A client speaking the wrong protocol version is refused at hello. *)
let test_protocol_mismatch () =
  with_temp_dir (fun dir ->
      let pid, socket, _store = spawn_daemon ~dir () in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let rec dial tries =
        match Unix.connect fd (Unix.ADDR_UNIX socket) with
        | () -> ()
        | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when tries > 0 ->
            Unix.sleepf 0.05;
            dial (tries - 1)
      in
      dial 100;
      let line = Proto.client_to_line (Proto.Hello { client = "old"; protocol = 999 }) in
      ignore (Unix.write_substring fd line 0 (String.length line));
      let buf = Bytes.create 4096 in
      let n = Unix.read fd buf 0 4096 in
      let frame = Proto.Frame.create () in
      let lines = Proto.Frame.feed frame (Bytes.sub_string buf 0 n) in
      (match List.map Proto.server_of_line lines with
      | Ok (Proto.Error { message; _ }) :: _ ->
          check "names the mismatch" true
            (String.length message > 0
            && Option.is_some
                 (String.index_opt message '9') (* "client sent 999" *))
      | _ -> Alcotest.fail "expected an error for a protocol mismatch");
      Unix.close fd;
      shutdown_daemon socket pid)

let () =
  Alcotest.run "serve"
    [
      ( "proto",
        [
          QCheck_alcotest.to_alcotest prop_client_roundtrip;
          QCheck_alcotest.to_alcotest prop_server_roundtrip;
          QCheck_alcotest.to_alcotest prop_frame_chunking;
          Alcotest.test_case "env layout below 1 rejected" `Quick test_env_layout_rejected;
          Alcotest.test_case "negative iterations rejected" `Quick
            test_negative_iterations_rejected;
          Alcotest.test_case "oversized grid rejected" `Quick test_oversized_grid_rejected;
          Alcotest.test_case "factorial histogram refused" `Quick test_histogram_ceiling;
          Alcotest.test_case "valid envs round-trip" `Quick test_valid_envs_roundtrip;
        ] );
      ( "ro-store",
        [
          Alcotest.test_case "open while locked" `Quick test_ro_open_while_locked;
          Alcotest.test_case "torn tail" `Quick test_ro_torn_tail;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "two clients dedup" `Quick test_two_clients_dedup;
          Alcotest.test_case "warm across restart" `Quick test_warm_across_restart;
          Alcotest.test_case "kill and resume" `Quick test_kill_and_resume;
          Alcotest.test_case "drain and shutdown" `Quick test_drain_and_shutdown;
          Alcotest.test_case "protocol mismatch" `Quick test_protocol_mismatch;
          Alcotest.test_case "bad cells answered, daemon serves on" `Quick
            test_bad_cells_answered;
          Alcotest.test_case "oversized grid answered, daemon serves on" `Quick
            test_oversized_grid_answered;
          Alcotest.test_case "factorial histogram answered, daemon serves on" `Quick
            test_factorial_histogram_answered;
          Alcotest.test_case "pool released and recreated across bursts" `Quick
            test_pool_across_bursts;
        ] );
    ]

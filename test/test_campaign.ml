(* Tests for mcm_campaign: content keys, the on-disk store's durability
   and recovery rules, the crash-safe journal, the cache-aware scheduler,
   the end-to-end kill-and-resume contract (a sweep interrupted mid-run
   and resumed through the store reproduces the uninterrupted sweep
   bit-identically, and `mcmutants cache verify` flags the torn store
   and passes the resumed one), and the warm store's 10x speed floor. *)

module Key = Mcm_campaign.Key
module Store = Mcm_campaign.Store
module Journal = Mcm_campaign.Journal
module Sched = Mcm_campaign.Sched
module Jsonw = Mcm_util.Jsonw
module Suite = Mcm_core.Suite
module Device = Mcm_gpu.Device
module Profile = Mcm_gpu.Profile
module Litmus = Mcm_litmus.Litmus
module Params = Mcm_testenv.Params
module Runner = Mcm_testenv.Runner
module Request = Mcm_testenv.Request
module Tuning = Mcm_harness.Tuning

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Unique scratch directories; cleaned eagerly so repeated `dune runtest`
   runs never see each other's stores. *)
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
      (Printf.sprintf "mcm-campaign-test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* The built binary: a dune dependency of the suite, found beside the
   test directory under dune and under _build from the repository
   root. *)
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

(* The exit code of `mcmutants ARGS`, its output discarded. *)
let cli_status args =
  Sys.command (Printf.sprintf "%s %s > /dev/null 2>&1" (Filename.quote exe) args)

let append_raw path s =
  let oc = open_out_gen [ Open_append; Open_wronly; Open_binary; Open_creat ] 0o644 path in
  output_string oc s;
  close_out oc

let first_segment dir =
  let segs =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".jsonl" && n <> "journal.jsonl")
    |> List.sort compare
  in
  Filename.concat dir (List.hd segs)

(* -------------------------------------------------------------------- *)
(* Keys                                                                   *)

let test_fnv_vectors () =
  (* Published FNV-1a/64 vectors. *)
  check "empty" true (Key.fnv1a64 "" = 0xcbf29ce484222325L);
  check "a" true (Key.fnv1a64 "a" = 0xaf63dc4c8601ec8cL);
  check "foobar" true (Key.fnv1a64 "foobar" = 0x85944171f73967e8L)

let test_key_of_fields () =
  let k1 = Key.of_fields [ ("x", Jsonw.Int 1) ] in
  let k2 = Key.of_fields [ ("x", Jsonw.Int 1) ] in
  let k3 = Key.of_fields [ ("x", Jsonw.Int 2) ] in
  let k4 = Key.of_fields [ ("y", Jsonw.Int 1) ] in
  check "deterministic" true (Key.equal k1 k2);
  check "value-sensitive" false (Key.equal k1 k3);
  check "name-sensitive" false (Key.equal k1 k4);
  (* code_version is baked in: the same object hashed raw differs. *)
  check "versioned" false
    (Key.equal k1 (Key.of_string (Jsonw.to_string (Jsonw.Obj [ ("x", Jsonw.Int 1) ]))))

let test_key_hex_roundtrip () =
  List.iter
    (fun s ->
      let k = Key.of_string s in
      check_str "16 hex digits" (Printf.sprintf "%016Lx" (Key.fnv1a64 (s))) (Key.to_hex k);
      match Key.of_hex (Key.to_hex k) with
      | Ok k' -> check "round-trips" true (Key.equal k k')
      | Error e -> Alcotest.failf "of_hex failed: %s" e)
    [ ""; "a"; "foobar"; String.make 100 'z' ];
  List.iter
    (fun bad -> check ("rejects " ^ bad) true (Result.is_error (Key.of_hex bad)))
    [ ""; "xyz"; "0123456789abcde"; "0123456789abcdef0"; "0123456789abcdeg" ]

let nvidia = lazy (Device.make Profile.nvidia)
let mp_co_m = lazy (Option.get (Suite.find "MP-CO-m")).Suite.test

let test_cell_key_sensitivity () =
  let device = Lazy.force nvidia in
  let test = Lazy.force mp_co_m in
  let env = Params.to_json Params.site_baseline in
  let base ?(kind = "run") ?(engine = "kernel") ?(iterations = 3) ?(seed = 1) () =
    Key.cell ~kind ~engine ~test ~device ~env ~iterations ~seed ()
  in
  check "deterministic" true (Key.equal (base ()) (base ()));
  check "kind" false (Key.equal (base ()) (base ~kind:"histogram" ()));
  check "engine" false (Key.equal (base ()) (base ~engine:"interpreter" ()));
  check "iterations" false (Key.equal (base ()) (base ~iterations:4 ()));
  check "seed" false (Key.equal (base ()) (base ~seed:2 ()));
  (* SITE's baseline is scale-invariant (nothing to scale), so compare
     against a different baseline instead. *)
  let env' = Params.to_json (Params.scaled Params.pte_baseline 0.5) in
  check "env" false
    (Key.equal (base ())
       (Key.cell ~kind:"run" ~engine:"kernel" ~test ~device ~env:env' ~iterations:3 ~seed:1 ()));
  let buggy = Device.make ~bugs:[ Mcm_gpu.Bug.Fence_weakened 0.1 ] Profile.nvidia in
  check "device bugs" false
    (Key.equal (base ())
       (Key.cell ~kind:"run" ~engine:"kernel" ~test ~device:buggy ~env ~iterations:3 ~seed:1 ()))

(* -------------------------------------------------------------------- *)
(* Store                                                                  *)

let k_of_int i = Key.of_string (string_of_int i)
let v_of_int i = Jsonw.Obj [ ("i", Jsonw.Int i) ]

let test_store_roundtrip () =
  with_temp_dir (fun dir ->
      Store.with_store dir (fun s ->
          check "empty" true (Store.find s (k_of_int 0) = None);
          for i = 0 to 9 do
            Store.add s (k_of_int i) (v_of_int i)
          done;
          check_int "count" 10 (Store.count s);
          check "mem" true (Store.mem s (k_of_int 3));
          check "find" true (Store.find s (k_of_int 3) = Some (v_of_int 3));
          check "miss" true (Store.find s (k_of_int 99) = None)))

let test_store_first_write_wins () =
  with_temp_dir (fun dir ->
      Store.with_store dir (fun s ->
          Store.add s (k_of_int 1) (v_of_int 1);
          Store.add s (k_of_int 1) (v_of_int 999);
          check_int "no duplicate" 1 (Store.count s);
          check "first wins" true (Store.find s (k_of_int 1) = Some (v_of_int 1))))

let test_store_persistence () =
  with_temp_dir (fun dir ->
      Store.with_store dir (fun s ->
          for i = 0 to 4 do
            Store.add s (k_of_int i) (v_of_int i)
          done);
      Store.with_store dir (fun s ->
          check_int "reloaded" 5 (Store.count s);
          check "payload intact" true (Store.find s (k_of_int 2) = Some (v_of_int 2));
          check "no warnings" true (Store.warnings s = [])))

let test_store_torn_tail () =
  with_temp_dir (fun dir ->
      Store.with_store dir (fun s ->
          for i = 0 to 4 do
            Store.add s (k_of_int i) (v_of_int i)
          done);
      let seg = first_segment dir in
      append_raw seg "{\"k\":\"00000000000000";
      (* Verify (read-only) sees the tear; reopening repairs it. *)
      (match Store.verify dir with
      | Ok r ->
          check_int "verify sees torn tail" 1 r.Store.v_torn;
          check "verify not ok" false (Store.verify_ok r)
      | Error e -> Alcotest.failf "verify: %s" e);
      Store.with_store dir (fun s ->
          check_int "records survive" 5 (Store.count s);
          check_int "torn tail counted" 1 (Store.stats s).Store.s_torn_tails;
          check "warned" true (Store.warnings s <> []));
      (* The tear was truncated away: a fresh open is clean. *)
      Store.with_store dir (fun s ->
          check_int "clean after repair" 0 (Store.stats s).Store.s_torn_tails);
      match Store.verify dir with
      | Ok r -> check "verify clean after repair" true (Store.verify_ok r)
      | Error e -> Alcotest.failf "verify: %s" e)

let test_store_bad_record_and_gc () =
  with_temp_dir (fun dir ->
      Store.with_store dir (fun s ->
          for i = 0 to 4 do
            Store.add s (k_of_int i) (v_of_int i)
          done);
      let seg = first_segment dir in
      (* A complete-but-garbage line, and an on-disk duplicate of key 0. *)
      append_raw seg "this is not json\n";
      append_raw seg
        (Jsonw.to_string
           (Jsonw.Obj [ ("k", Jsonw.String (Key.to_hex (k_of_int 0))); ("v", v_of_int 666) ])
        ^ "\n");
      (match Store.verify dir with
      | Ok r ->
          check_int "verify sees bad record" 1 r.Store.v_bad;
          check_int "verify sees duplicate" 1 r.Store.v_duplicates
      | Error e -> Alcotest.failf "verify: %s" e);
      Store.with_store dir (fun s ->
          check_int "live records" 5 (Store.count s);
          check "duplicate kept first" true (Store.find s (k_of_int 0) = Some (v_of_int 0));
          let st = Store.stats s in
          check_int "bad counted" 1 st.Store.s_disk_bad;
          check_int "duplicate counted" 1 st.Store.s_disk_duplicates;
          check_int "gc drops stale" 2 (Store.gc s);
          check_int "gc preserves live" 5 (Store.count s);
          check "payloads intact" true (Store.find s (k_of_int 3) = Some (v_of_int 3)));
      match Store.verify dir with
      | Ok r ->
          check "verify clean after gc" true (Store.verify_ok r);
          check_int "one segment after gc" 1 r.Store.v_segments
      | Error e -> Alcotest.failf "verify: %s" e)

let test_store_segment_roll () =
  with_temp_dir (fun dir ->
      (* max_segment_bytes clamps to 4096, so write ~300-byte payloads
         to force a roll within a few dozen records. *)
      let big i = Jsonw.Obj [ ("i", Jsonw.Int i); ("pad", Jsonw.String (String.make 300 'x')) ] in
      let s = Store.open_store ~max_segment_bytes:4096 dir in
      Fun.protect
        ~finally:(fun () -> Store.close s)
        (fun () ->
          for i = 0 to 29 do
            Store.add s (k_of_int i) (big i)
          done;
          check "rolled" true ((Store.stats s).Store.s_segments > 1));
      Store.with_store dir (fun s ->
          check_int "all records across segments" 30 (Store.count s);
          check "payload intact across segments" true (Store.find s (k_of_int 17) = Some (big 17));
          check_int "gc compacts" 1 (ignore (Store.gc s); (Store.stats s).Store.s_segments))
      )

let test_store_add_after_close () =
  with_temp_dir (fun dir ->
      let s = Store.open_store dir in
      Store.close s;
      check "add after close raises" true
        (match Store.add s (k_of_int 1) (v_of_int 1) with
        | () -> false
        | exception _ -> true))

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* The writer lock is per-process (POSIX lockf): a second process
   opening the same store directory must fail fast with an error that
   names the lock file, and closing the store releases the lock. The
   second process is a real fork — same-process reopens share the lock
   by design (crash-resume reopens the store it just closed). *)
let test_store_writer_lock () =
  with_temp_dir (fun dir ->
      Store.with_store dir (fun _store ->
          match Unix.fork () with
          | 0 ->
              (* Child: must be refused. [Unix._exit] skips atexit and
                 buffered-channel flushing inherited from the parent. *)
              let code =
                match Store.with_store dir (fun _ -> ()) with
                | () -> 1
                | exception Failure msg ->
                    if contains msg (Filename.concat dir "LOCK") then 0 else 2
                | exception _ -> 3
              in
              Unix._exit code
          | pid -> (
              match snd (Unix.waitpid [] pid) with
              | Unix.WEXITED 0 -> ()
              | Unix.WEXITED 1 -> Alcotest.fail "second process acquired the writer lock"
              | Unix.WEXITED 2 -> Alcotest.fail "lock error does not name the lock file"
              | _ -> Alcotest.fail "lock-probe child crashed"));
      (* Close released the lock: reopening succeeds, and the LOCK file
         is not mistaken for a segment. *)
      Store.with_store dir (fun store -> check_int "reopen after close" 0 (Store.count store));
      match Store.verify dir with
      | Ok r -> check "verifies clean with LOCK present" true (Store.verify_ok r)
      | Error e -> Alcotest.failf "verify: %s" e)

(* -------------------------------------------------------------------- *)
(* Journal                                                                *)

let sweep_a = Key.of_string "sweep-a"
let sweep_b = Key.of_string "sweep-b"

let test_journal_fresh_and_finish () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "journal.jsonl" in
      Journal.with_journal path (fun j ->
          check "absent file loads empty" true (Journal.header j = None);
          check "fresh" true (Journal.start j ~sweep:sweep_a ~cells:10 = `Fresh);
          Journal.record j ~done_:4;
          Journal.record j ~done_:8;
          Journal.finish j);
      Journal.with_journal path (fun j ->
          (match Journal.header j with
          | Some h ->
              check "sweep persisted" true (Key.equal h.Journal.sweep sweep_a);
              check_int "cells persisted" 10 h.Journal.cells
          | None -> Alcotest.fail "no header after reload");
          check_int "progress persisted" 8 (Journal.progress j);
          check "finished persisted" true (Journal.finished j);
          (* A finished sweep restarts fresh, not resumed. *)
          check "finished restarts fresh" true (Journal.start j ~sweep:sweep_a ~cells:10 = `Fresh)))

let test_journal_resume_and_mismatch () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "journal.jsonl" in
      Journal.with_journal path (fun j ->
          ignore (Journal.start j ~sweep:sweep_a ~cells:10);
          Journal.record j ~done_:6);
      Journal.with_journal path (fun j ->
          check "same sweep resumes" true (Journal.start j ~sweep:sweep_a ~cells:10 = `Resumed 6));
      Journal.with_journal path (fun j ->
          check "different sweep is fresh" true (Journal.start j ~sweep:sweep_b ~cells:10 = `Fresh);
          check_int "progress reset" 0 (Journal.progress j)))

let test_journal_torn_tail () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "journal.jsonl" in
      Journal.with_journal path (fun j ->
          ignore (Journal.start j ~sweep:sweep_a ~cells:10);
          Journal.record j ~done_:3;
          Journal.record j ~done_:7);
      (* A crash mid-append: partial record, no newline. *)
      append_raw path "{\"done\":9";
      Journal.with_journal path (fun j ->
          check_int "torn record ignored" 7 (Journal.progress j);
          check "still resumable" true (Journal.start j ~sweep:sweep_a ~cells:10 = `Resumed 7)))

(* -------------------------------------------------------------------- *)
(* Scheduler                                                              *)

let sched_key i = k_of_int i

let encode_int i = Jsonw.Int i

let decode_int = function Jsonw.Int i -> Ok i | v -> Error ("not an int: " ^ Jsonw.to_string v)

let test_sched_cold_then_warm () =
  with_temp_dir (fun dir ->
      Store.with_store dir (fun store ->
          let calls = ref 0 in
          let f i =
            incr calls;
            i * i
          in
          let out, stats =
            Sched.run ~store ~key:sched_key ~encode:encode_int ~decode:decode_int ~f ~n:10 ()
          in
          check "cold results" true (out = Array.init 10 (fun i -> i * i));
          check_int "cold misses" 10 stats.Sched.misses;
          check_int "cold hits" 0 stats.Sched.hits;
          check_int "cold calls f" 10 !calls;
          let out2, stats2 =
            Sched.run ~store ~key:sched_key ~encode:encode_int ~decode:decode_int ~f ~n:10 ()
          in
          check "warm results identical" true (out = out2);
          check_int "warm hits" 10 stats2.Sched.hits;
          check_int "warm misses" 0 stats2.Sched.misses;
          check_int "warm never calls f" 10 !calls))

let test_sched_decode_failure_recomputes () =
  with_temp_dir (fun dir ->
      Store.with_store dir (fun store ->
          let f i = i + 1 in
          ignore (Sched.run ~store ~key:sched_key ~encode:encode_int ~decode:decode_int ~f ~n:5 ());
          let count_before = Store.count store in
          (* A decoder that rejects everything: every hit demotes to a
             miss, is recomputed, and is NOT re-stored (first write
             wins). *)
          let reject _ = Error "stale codec" in
          let out, stats =
            Sched.run ~store ~key:sched_key ~encode:encode_int ~decode:reject ~f ~n:5 ()
          in
          check "recomputed results" true (out = Array.init 5 (fun i -> i + 1));
          check_int "all decode failures" 5 stats.Sched.decode_failures;
          check_int "all misses" 5 stats.Sched.misses;
          check_int "store unchanged" count_before (Store.count store)))

let prop_sched_family_grouping_invisible =
  (* The schema plan's dispatch hook: grouping misses by family may
     change dispatch order only — same results at the same grid indices
     and the same hit/miss/decode stats, over a mixed warm/cold store
     and through the decode-failure demotion path. *)
  QCheck.Test.make ~count:25 ~name:"family grouping: bit-identical results and stats"
    QCheck.(triple small_int (make (Gen.int_range 1 25)) bool)
    (fun (seed, n, reject_all) ->
      let f i = (i * i) + seed in
      let family i = Hashtbl.hash (seed, i mod 4) land max_int in
      let prepopulate store =
        (* A deterministic subset is already cached, so both runs see the
           same hit/miss mix. *)
        for i = 0 to n - 1 do
          if (i + seed) mod 3 = 0 then Store.add store (sched_key i) (encode_int (f i))
        done
      in
      let decode = if reject_all then fun _ -> Error "stale codec" else decode_int in
      let run ?family () =
        with_temp_dir (fun dir ->
            Store.with_store dir (fun store ->
                prepopulate store;
                Sched.run ?family ~store ~key:sched_key ~encode:encode_int ~decode ~f ~n ()))
      in
      let out_u, stats_u = run () in
      let out_g, stats_g = run ~family () in
      out_u = out_g && stats_u = stats_g)

let test_sched_journal_checkpoints () =
  with_temp_dir (fun dir ->
      Store.with_store dir (fun store ->
          Journal.with_journal (Filename.concat dir "journal.jsonl") (fun j ->
              let f i = i in
              let _, _ =
                Sched.run ~shard:4 ~journal:(j, sweep_a) ~store ~key:sched_key
                  ~encode:encode_int ~decode:decode_int ~f ~n:10 ()
              in
              check_int "journal at full progress" 10 (Journal.progress j);
              check "journal finished" true (Journal.finished j))))

(* -------------------------------------------------------------------- *)
(* Kill-and-resume: the end-to-end contract                               *)

let mutants names =
  List.filter (fun (e : Suite.entry) -> List.mem e.Suite.test.Litmus.name names) (Suite.mutants ())

(* Sweeps compare on their closure-free fields, floats included. *)
let fingerprint runs =
  List.map
    (fun (r : Tuning.run) ->
      (r.Tuning.category, r.Tuning.env_index, r.Tuning.test_name, r.Tuning.result))
    runs

(* Simulate a SIGKILL mid-sweep: run a tiny tuning sweep through a
   store, then corrupt the artefacts the way a kill would (store segment
   truncated mid-record, journal left with a torn tail and no completion
   record), then resume. The resumed sweep must (a) resume rather than
   restart, (b) reproduce the uninterrupted sweep's tallies
   bit-identically, and (c) leave a store that verifies clean, through
   the library and through `mcmutants cache verify`, which must also
   have refused the torn store. *)
let test_kill_and_resume () =
  let config =
    { Tuning.n_envs = 2; site_iterations = 4; pte_iterations = 2; scale = 0.01; seed = 7 }
  in
  let devices = [ Lazy.force nvidia ] in
  let tests = mutants [ "MP-CO-m"; "CoRR-m" ] in
  let baseline = fingerprint (Tuning.sweep ~devices ~tests config) in
  with_temp_dir (fun dir ->
      let jpath = Filename.concat dir "journal.jsonl" in
      let stored () =
        Store.with_store dir (fun store ->
            Journal.with_journal jpath (fun journal ->
                Tuning.sweep ~ctx:(Request.context ~store ~journal ()) ~devices ~tests config))
      in
      check "uninterrupted stored sweep identical" true (fingerprint (stored ()) = baseline);
      (* The kill: tear the store's last record and the journal's tail,
         and erase the completion record so the sweep reads as
         interrupted. *)
      let seg = first_segment dir in
      let len = (Unix.stat seg).Unix.st_size in
      Unix.truncate seg (len - 7);
      let jlines =
        In_channel.with_open_bin jpath In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "" && not (String.length l >= 11 && String.sub l 0 11 = "{\"finished\""))
      in
      let oc = open_out_bin jpath in
      List.iter (fun l -> output_string oc (l ^ "\n")) jlines;
      output_string oc "{\"done\":";
      close_out oc;
      (* Resume: the journal must report the sweep as resumable, the
         sweep must recompute only the torn-away cell(s), and the tallies
         must match the uninterrupted run exactly. *)
      Journal.with_journal jpath (fun j ->
          check "interrupted journal is unfinished" false (Journal.finished j));
      let store_arg = "--store " ^ Filename.quote dir in
      check "cache verify fails on the torn store" true (cli_status ("cache verify " ^ store_arg) <> 0);
      let resumed = stored () in
      check "resumed sweep bit-identical" true (fingerprint resumed = baseline);
      Journal.with_journal jpath (fun j ->
          check "journal finished after resume" true (Journal.finished j));
      (match Store.verify dir with
      | Ok r -> check "store verifies clean after resume" true (Store.verify_ok r)
      | Error e -> Alcotest.failf "verify: %s" e);
      check_int "cache verify passes the resumed store" 0 (cli_status ("cache verify " ^ store_arg));
      check_int "cache stats reads the resumed store" 0 (cli_status ("cache stats " ^ store_arg));
      (* And a third run is all hits — still identical. *)
      check "warm rerun identical" true (fingerprint (stored ()) = baseline))

(* The warm store's speed floor, on a sweep of 2 devices x 3 mutants x
   8 environment rows at 160/40 SITE/PTE iterations over 2 domains: the
   fastest of three warm reruns, every cell served from the store, is
   at least 10x faster than the cold run that computed and stored the
   cells. Cold and warm both reproduce the sweep without a store. *)
let test_warm_store_speedup () =
  let config =
    { Tuning.n_envs = 2; site_iterations = 160; pte_iterations = 40; scale = 0.02; seed = 20230325 }
  in
  let devices = [ Lazy.force nvidia; Device.make Profile.intel ] in
  let tests = mutants [ "MP-CO-m"; "CoRR-m"; "MP-relacq-m3" ] in
  let sweep ?store ?journal () =
    Tuning.sweep ~ctx:(Request.context ~domains:2 ?store ?journal ()) ~devices ~tests config
  in
  let baseline = fingerprint (sweep ()) in
  with_temp_dir (fun dir ->
      let stored () =
        Store.with_store dir (fun store ->
            Journal.with_journal (Filename.concat dir "journal.jsonl") (fun journal ->
                sweep ~store ~journal ()))
      in
      let timed () =
        let t0 = Unix.gettimeofday () in
        let runs = stored () in
        (runs, Unix.gettimeofday () -. t0)
      in
      let cold, cold_s = timed () in
      check "cold sweep identical" true (fingerprint cold = baseline);
      let warm_s =
        List.init 3 (fun _ ->
            let warm, s = timed () in
            check "warm sweep identical" true (fingerprint warm = baseline);
            s)
        |> List.fold_left Float.min infinity
      in
      if cold_s < 10. *. warm_s then
        Alcotest.failf "warm rerun %.4f s is under 10x faster than cold %.4f s" warm_s cold_s)

(* -------------------------------------------------------------------- *)
(* Runner codecs: what the store persists must decode to what was
   computed, through an actual write-then-parse cycle.                    *)

let roundtrip c v =
  match Mcm_util.Jsonp.parse (Jsonw.to_string (Runner.encode c v)) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok json -> (
      match Runner.decode c json with
      | Ok v' -> v' = v
      | Error e -> Alcotest.failf "decode failed: %s" e)

let test_runner_codecs () =
  let device = Lazy.force nvidia in
  let test = Lazy.force mp_co_m in
  let env = Params.scaled Params.pte_baseline 0.01 in
  let r = Request.make ~device ~env ~test ~iterations:3 ~seed:42 () in
  let exec c = Runner.exec c r Request.serial in
  check "result round-trips" true (roundtrip Runner.Rate (exec Runner.Rate));
  check "histogram cell round-trips" true (roundtrip Runner.Histogram (exec Runner.Histogram));
  check "outcomes cell round-trips" true (roundtrip Runner.Outcomes (exec Runner.Outcomes))

let test_runner_store_memoizes () =
  with_temp_dir (fun dir ->
      Store.with_store dir (fun store ->
          let device = Lazy.force nvidia in
          let test = Lazy.force mp_co_m in
          let env = Params.scaled Params.pte_baseline 0.01 in
          let run seed =
            Runner.exec Runner.Rate
              (Request.make ~device ~env ~test ~iterations:3 ~seed ())
              (Request.context ~store ())
          in
          let r1 = run 42 in
          check "campaign cached" true (Store.count store > 0);
          let n = Store.count store in
          let r2 = run 42 in
          check "cached result identical" true (r1 = r2);
          check_int "no new records on warm run" n (Store.count store);
          (* A different seed is a different cell. *)
          ignore (run 43);
          check "new cell stored" true (Store.count store > n)))

let () =
  Alcotest.run "campaign"
    [
      ( "key",
        [
          Alcotest.test_case "fnv vectors" `Quick test_fnv_vectors;
          Alcotest.test_case "of_fields" `Quick test_key_of_fields;
          Alcotest.test_case "hex round-trip" `Quick test_key_hex_roundtrip;
          Alcotest.test_case "cell sensitivity" `Quick test_cell_key_sensitivity;
        ] );
      ( "store",
        [
          Alcotest.test_case "round-trip" `Quick test_store_roundtrip;
          Alcotest.test_case "first write wins" `Quick test_store_first_write_wins;
          Alcotest.test_case "persistence" `Quick test_store_persistence;
          Alcotest.test_case "torn tail" `Quick test_store_torn_tail;
          Alcotest.test_case "bad record + gc" `Quick test_store_bad_record_and_gc;
          Alcotest.test_case "segment roll" `Quick test_store_segment_roll;
          Alcotest.test_case "add after close" `Quick test_store_add_after_close;
          Alcotest.test_case "writer lock" `Quick test_store_writer_lock;
        ] );
      ( "journal",
        [
          Alcotest.test_case "fresh and finish" `Quick test_journal_fresh_and_finish;
          Alcotest.test_case "resume and mismatch" `Quick test_journal_resume_and_mismatch;
          Alcotest.test_case "torn tail" `Quick test_journal_torn_tail;
        ] );
      ( "sched",
        [
          Alcotest.test_case "cold then warm" `Quick test_sched_cold_then_warm;
          Alcotest.test_case "decode failure" `Quick test_sched_decode_failure_recomputes;
          Alcotest.test_case "journal checkpoints" `Quick test_sched_journal_checkpoints;
          QCheck_alcotest.to_alcotest prop_sched_family_grouping_invisible;
        ] );
      ( "resume",
        [
          Alcotest.test_case "kill and resume" `Quick test_kill_and_resume;
          Alcotest.test_case "warm store 10x cold" `Slow test_warm_store_speedup;
        ] );
      ( "runner",
        [
          Alcotest.test_case "codecs round-trip" `Quick test_runner_codecs;
          Alcotest.test_case "store memoizes" `Quick test_runner_store_memoizes;
        ] );
    ]

(* Tests for the unified request -> plan -> execute pipeline:
   Request serialization, cell-key stability against pinned hex vectors
   (the warm-store compatibility contract), and [Runner.exec]'s
   bit-identity with the raw engine and under every collector — serial,
   sharded, on a borrowed pool, and through a store. *)

module Prng = Mcm_util.Prng
module Jsonw = Mcm_util.Jsonw
module Jsonp = Mcm_util.Jsonp
module Suite = Mcm_core.Suite
module Profile = Mcm_gpu.Profile
module Device = Mcm_gpu.Device
module Bug = Mcm_gpu.Bug
module Params = Mcm_testenv.Params
module Runner = Mcm_testenv.Runner
module Request = Mcm_testenv.Request
module Key = Mcm_campaign.Key
module Store = Mcm_campaign.Store

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
      (Printf.sprintf "mcm-pipeline-test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* A small pool of (test, device) material for random requests: two
   correct devices, one buggy one (so outcome sets and histograms carry
   forbidden behaviour too), three mutants of different families. *)
let tests_pool =
  lazy
    (List.map
       (fun n -> (Option.get (Suite.find n)).Suite.test)
       [ "MP-CO-m"; "CoRR-m"; "MP-relacq-m3" ])

let devices_pool =
  lazy
    [
      Device.make Profile.nvidia;
      Device.make Profile.intel;
      Device.make ~bugs:[ Bug.Corr_reorder 0.5 ] Profile.amd;
    ]

let random_request ~seed ~iterations ~engine =
  let g = Prng.create seed in
  let tests = Lazy.force tests_pool in
  let devices = Lazy.force devices_pool in
  let test = List.nth tests (Prng.int g (List.length tests)) in
  let device = List.nth devices (Prng.int g (List.length devices)) in
  let env = Params.scaled (Params.random g Params.Parallel) 0.01 in
  Request.make ~engine ~device ~env ~test ~iterations ~seed ()

let point_arb =
  (* (seed, iterations 0..3, domains 1..4, kernel engine?) *)
  QCheck.(
    quad small_int
      (make (Gen.int_range 0 3))
      (make (Gen.int_range 1 4))
      bool)

let engine_of_bool kernel = if kernel then Request.Kernel else Request.Interpreter

(* -------------------------------------------------------------------- *)
(* Request serialization.                                                 *)

let prop_request_json_roundtrips =
  (* The canonical cell serialization must survive a print/parse/print
     cycle at the string level — what key stability and the store's
     human-auditable payloads rest on. (String level: Jsonw prints 1.0
     as "1", which reparses as an Int — tree equality is the wrong
     contract for floats.) *)
  QCheck.Test.make ~count:100 ~name:"Request.to_json survives print/parse/print" point_arb
    (fun (seed, iterations, _domains, kernel) ->
      let r = random_request ~seed ~iterations ~engine:(engine_of_bool kernel) in
      List.for_all
        (fun kind ->
          let s = Jsonw.to_string (Request.to_json ~kind r) in
          match Jsonp.parse s with
          | Error _ -> false
          | Ok j -> Jsonw.to_string j = s)
        [ "run"; "histogram"; "outcomes" ])

let prop_engine_names_roundtrip =
  QCheck.Test.make ~count:10 ~name:"engine_of_name inverts engine_name" QCheck.bool
    (fun kernel ->
      let e = engine_of_bool kernel in
      Request.engine_of_name (Request.engine_name e) = Some e)

(* -------------------------------------------------------------------- *)
(* Key stability: pinned hex vectors.                                     *)

(* These hashes are the on-disk contract: they freeze Key.code_version,
   Kernel.code_version (v3: scoped instructions, the scope event lane
   and the layout scalar — the deliberate re-addressing that keeps
   scoped results distinct from pre-scope stores), the canonical field
   order, and every serialized component. If one of these changes
   value, every existing campaign store goes cold — bump a code version
   deliberately rather than chasing the new hex. *)
let test_pinned_key_vectors () =
  (* The vectors below embed kernelVersion:3; freezing the version here
     makes an accidental bump (which would cold every store) explicit. *)
  Alcotest.(check int) "kernel code version" 3 Mcm_gpu.Kernel.code_version;
  Alcotest.(check string) "key code version" "mcm-cell-v2" Key.code_version;
  let device = Device.make Profile.nvidia in
  let env = Params.scaled Params.pte_baseline 0.02 in
  let test = (Option.get (Suite.find "MP-CO-m")).Suite.test in
  let req engine = Request.make ~engine ~device ~env ~test ~iterations:3 ~seed:42 () in
  List.iter
    (fun (kind, engine, expected) ->
      check_str
        (Printf.sprintf "%s/%s key" kind (Request.engine_name engine))
        expected
        (Key.to_hex (Request.key ~kind (req engine))))
    [
      ("run", Request.Kernel, "5de209034e1279ab");
      ("histogram", Request.Kernel, "591379a9abf17eb2");
      ("outcomes", Request.Kernel, "68f73b6798747693");
      ("run", Request.Interpreter, "aa9ffae92502a120");
    ]

(* -------------------------------------------------------------------- *)
(* The key memo against the unmemoized key.                               *)

module Litmus = Mcm_litmus.Litmus

let fnv_reference s =
  String.fold_left
    (fun h c -> Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
    0xcbf29ce484222325L s

let test_fnv_long_string () =
  let s = String.init 1500 (fun i -> Char.chr (((i * 131) + 7) land 0xff)) in
  Alcotest.(check bool) "bytes >= 0x80 present" true (String.exists (fun c -> Char.code c >= 0x80) s);
  Alcotest.(check string) "fnv1a64 == reference fold"
    (Printf.sprintf "%016Lx" (fnv_reference s))
    (Printf.sprintf "%016Lx" (Key.fnv1a64 s))

(* One random cell: its kind, engine, test, profile, bug set (none, the
   profile's paper bug, a -0.0 bug that folds to the correct device's
   +0.0 effect, a NaN bug that never compares equal), env shape and
   iterations and seed at the extremes. *)
type key_case = {
  kc_kind : string;
  kc_kernel : bool;
  kc_test : int;
  kc_profile : int;
  kc_bug : int;
  kc_env : int * int;
  kc_iterations : int;
  kc_seed : int;
}

let key_case_gen =
  QCheck.Gen.(
    let* kc_kind = oneofl [ "run"; "histogram"; "outcomes" ] in
    let* kc_kernel = bool in
    let* kc_test = int_range 0 2 in
    let* kc_profile = int_range 0 3 in
    let* kc_bug = int_range 0 3 in
    let* kc_env = pair (int_range 0 3) small_nat in
    let* kc_iterations = oneof [ return 0; int_range 1 5; int_range 0 1_000_000 ] in
    let+ kc_seed =
      oneof [ return min_int; return max_int; int_range (-1000) (-1); small_nat; int ]
    in
    { kc_kind; kc_kernel; kc_test; kc_profile; kc_bug; kc_env; kc_iterations; kc_seed })

let print_key_case c =
  Printf.sprintf "kind=%s kernel=%b test=%d profile=%d bug=%d env=(%d,%d) iterations=%d seed=%d"
    c.kc_kind c.kc_kernel c.kc_test c.kc_profile c.kc_bug (fst c.kc_env) (snd c.kc_env)
    c.kc_iterations c.kc_seed

(* Fresh device and env values on every call, so a second request for
   one case reaches the memo's structural comparison. *)
let key_request ?test c =
  let test =
    match test with
    | Some t -> t
    | None -> List.nth (Lazy.force tests_pool) c.kc_test
  in
  let profile = List.nth Profile.all c.kc_profile in
  let bugs =
    match c.kc_bug with
    | 0 -> []
    | 1 -> Option.to_list (Bug.paper_bug profile)
    | 2 -> [ Bug.Corr_reorder (-0.0) ]
    | _ -> [ Bug.Fence_weakened Float.nan ]
  in
  let shape, draw = c.kc_env in
  let env =
    match shape with
    | 0 -> Params.scaled Params.pte_baseline 0.02
    | 1 -> Params.scaled Params.site_baseline 0.5
    | 2 -> Params.scaled (Params.random (Prng.create draw) Params.Parallel) 0.01
    | _ -> Params.random (Prng.create draw) Params.Single
  in
  Request.make ~engine:(engine_of_bool c.kc_kernel) ~device:(Device.make ~bugs profile) ~env
    ~test ~iterations:c.kc_iterations ~seed:c.kc_seed ()

(* The requests that differ from [r] in one field each: they share its
   test value, so a memo that ignored that field would hand one of them
   [r]'s key (or [r] theirs). *)
let neighbours c (r : Request.t) =
  let other_kind =
    match c.kc_kind with "run" -> "histogram" | "histogram" -> "outcomes" | _ -> "run"
  in
  let env = r.Request.env and test = r.Request.test in
  [
    (other_kind, r);
    (c.kc_kind, { r with Request.engine = engine_of_bool (not c.kc_kernel) });
    (c.kc_kind, key_request ~test { c with kc_profile = (c.kc_profile + 1) mod 4 });
    (c.kc_kind, key_request ~test { c with kc_bug = (c.kc_bug + 1) mod 4 });
    (c.kc_kind, { r with Request.env = { env with Params.permute_second = env.permute_second + 1 } });
    ( c.kc_kind,
      { r with Request.env = { env with Params.testing_workgroups = env.testing_workgroups + 1 } } );
    (c.kc_kind, { r with Request.iterations = r.iterations lxor 1 });
    (c.kc_kind, { r with Request.seed = r.seed lxor 1 });
  ]

let prop_key_memo_exact =
  QCheck.Test.make ~count:60 ~name:"Request.key == Key.of_fields (Request.to_fields)"
    (QCheck.make
       ~print:(fun (c, others) ->
         String.concat "; " (List.map print_key_case (c :: others)))
       QCheck.Gen.(pair key_case_gen (list_size (int_range 1 4) key_case_gen)))
    (fun (c, others) ->
      let reference kind r = Key.of_fields (Request.to_fields ~kind r) in
      let exact (kind, r) = Key.equal (Request.key ~kind r) (reference kind r) in
      let kind = c.kc_kind in
      (* A fresh copy of the test: the first call cannot hit an entry an
         earlier case left. *)
      let base = List.nth (Lazy.force tests_pool) c.kc_test in
      let r = key_request ~test:{ base with Litmus.name = base.Litmus.name } c in
      let expected = reference kind r in
      let first = Request.key ~kind r in
      let repeat = Request.key ~kind r in
      let equal_copy = Request.key ~kind (key_request ~test:r.Request.test c) in
      let neighbours_exact = List.for_all exact (neighbours c r) in
      let others_exact = List.for_all (fun o -> exact (o.kc_kind, key_request o)) others in
      let interleaved = Request.key ~kind r in
      let test = r.Request.test in
      let same_name =
        let threads = Array.append test.Litmus.threads [| test.Litmus.threads.(0) |] in
        { r with Request.test = { test with Litmus.threads } }
      in
      let same_name_key = Request.key ~kind same_name in
      let after_same_name = Request.key ~kind r in
      let other_domain = Domain.join (Domain.spawn (fun () -> Request.key ~kind r)) in
      List.for_all (Key.equal expected)
        [ first; repeat; equal_copy; interleaved; after_same_name; other_domain ]
      && neighbours_exact && others_exact
      && Key.equal same_name_key (reference kind same_name)
      && not (Key.equal same_name_key expected))

(* More distinct cells than the memo holds, differing only in env
   fields past the tenth or in the seed: keys stay exact across its
   wholesale resets. *)
let test_key_memo_reset () =
  let test = List.hd (Lazy.force tests_pool) in
  let device = Device.make Profile.nvidia in
  let request i =
    let env =
      { Params.pte_baseline with Params.mem_stride = 1 + (i / 8); permute_second = i / 2 mod 4 }
    in
    Request.make ~device ~env ~test ~iterations:1 ~seed:(i mod 2) ()
  in
  for pass = 1 to 2 do
    for i = 0 to 1199 do
      let r = request i in
      if not (Key.equal (Request.key ~kind:"run" r) (Key.of_fields (Request.to_fields ~kind:"run" r)))
      then Alcotest.failf "pass %d, cell %d: memoized key differs" pass i
    done
  done

(* Two envs whose slot hashes collide share a memo bucket, so only the
   memo's env comparison keeps their keys apart. The pair is the first
   collision in a fixed sequence of envs (~2^15 draws for a 30-bit
   hash). *)
let test_key_memo_slot_collision () =
  let env i =
    { Params.pte_baseline with Params.mem_stride = 1 + (i mod 1024); stress_target_lines = i / 1024 }
  in
  let seen = Hashtbl.create 65536 in
  let rec find i =
    let h = Hashtbl.hash_param 20 20 (env i) in
    match Hashtbl.find_opt seen h with
    | Some j -> (j, i)
    | None ->
        Hashtbl.add seen h i;
        find (i + 1)
  in
  let a, b = find 0 in
  let test = List.hd (Lazy.force tests_pool) in
  let device = Device.make Profile.amd in
  let request i = Request.make ~device ~env:(env i) ~test ~iterations:2 ~seed:7 () in
  List.iter
    (fun i ->
      let r = request i in
      check_str
        (Printf.sprintf "env %d of the colliding pair (%d, %d)" i a b)
        (Key.to_hex (Key.of_fields (Request.to_fields ~kind:"run" r)))
        (Key.to_hex (Request.key ~kind:"run" r)))
    [ a; b; a; b ]

(* A hit costs the lookup alone, a few boxed words, against ~1,100 for
   a full serialization and fold. *)
let test_key_memo_hit_allocation () =
  let device = Device.make Profile.intel in
  let env = Params.scaled Params.pte_baseline 0.02 in
  let test = (Option.get (Suite.find "MP-CO-m")).Suite.test in
  let r = Request.make ~device ~env ~test ~iterations:3 ~seed:42 () in
  ignore (Request.key ~kind:"run" r);
  let before = Gc.minor_words () in
  let k = Request.key ~kind:"run" r in
  let words = Gc.minor_words () -. before in
  check_str "hit equals the unmemoized key"
    (Key.to_hex (Key.of_fields (Request.to_fields ~kind:"run" r)))
    (Key.to_hex k);
  if words > 64. then Alcotest.failf "a memo hit allocated %.0f minor words (want <= 64)" words

(* -------------------------------------------------------------------- *)
(* exec vs the raw engine and through a store.                            *)

let prop_exec_rate_equals_engine =
  QCheck.Test.make ~count:25 ~name:"exec Rate == raw run_campaign" point_arb
    (fun (seed, iterations, domains, kernel) ->
      let engine = engine_of_bool kernel in
      let r = random_request ~seed ~iterations ~engine in
      let { Request.device; env; test; _ } = r in
      Runner.exec Runner.Rate r (Request.context ~domains ())
      = fst (Runner.run_campaign ~engine ~classify:None ~device ~env ~test ~iterations ~seed ()))

let prop_exec_store_transparent =
  (* Under every collector: a cold store run equals the uncached run,
     and the warm rerun (served entirely from disk, through the codec)
     equals both — the end-to-end bit-identity contract. *)
  QCheck.Test.make ~count:15 ~name:"exec through a store == exec without one" point_arb
    (fun (seed, iterations, domains, kernel) ->
      let r = random_request ~seed ~iterations ~engine:(engine_of_bool kernel) in
      let agree : type a. a Runner.collect -> bool =
       fun c ->
        let bare = Runner.exec c r (Request.context ~domains ()) in
        with_temp_dir (fun dir ->
            Store.with_store dir (fun store ->
                let ctx = Request.context ~domains ~store () in
                let cold = Runner.exec c r ctx in
                let warm = Runner.exec c r ctx in
                cold = bare && warm = bare))
      in
      agree Runner.Rate && agree Runner.Histogram && agree Runner.Outcomes)

(* -------------------------------------------------------------------- *)
(* Borrowed pools.                                                        *)

module Pool = Mcm_util.Pool
module Grid = Mcm_harness.Grid

(* A deterministic spread of cells over SITE and PTE envs (a seeded
   random PTE env with stress and shuffles among them), both engines and
   iteration counts from 1 to 7, i.e. below, at and above the domain
   count of the pools that run them. *)
let pooled_requests =
  lazy
    (let tests = Lazy.force tests_pool and devices = Lazy.force devices_pool in
     let envs =
       [
         Params.site_baseline;
         Params.scaled Params.pte_baseline 0.01;
         Params.scaled (Params.random (Prng.create 7) Params.Parallel) 0.01;
         Params.random (Prng.create 8) Params.Single;
       ]
     in
     Array.init 24 (fun i ->
         Request.make
           ~engine:(if i mod 3 = 2 then Request.Interpreter else Request.Kernel)
           ~device:(List.nth devices (i mod 3))
           ~env:(List.nth envs (i mod 4))
           ~test:(List.nth tests (i / 4 mod 3))
           ~iterations:(1 + (i mod 7))
           ~seed:(1000 + i) ()))

(* One pool serves every cell in turn, as the daemon's does: each cell,
   under each collector, equals its serial run. *)
let test_pool_reused_across_cells () =
  let requests = Lazy.force pooled_requests in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let ctx = Request.context ~pool () in
          Alcotest.(check int) "domains taken from the pool" domains ctx.Request.domains;
          Array.iteri
            (fun i r ->
              let same : type a. a Runner.collect -> unit =
               fun c ->
                Alcotest.(check bool)
                  (Printf.sprintf "cell %d (%s) on a %d-domain pool" i (Runner.kind c) domains)
                  true
                  (Runner.exec c r ctx = Runner.exec c r Request.serial)
              in
              same Runner.Rate;
              same Runner.Histogram;
              same Runner.Outcomes)
            requests))
    [ 2; 3 ]

(* A grid on a borrowed pool equals the serial grid, store-less and
   through a store (cold, then warm), with the same planner stats. *)
let test_pooled_grid () =
  let requests = Lazy.force pooled_requests in
  let n = Array.length requests in
  let grid = Grid.make Runner.Histogram ~n ~request:(Array.get requests) in
  let cold_then_warm ctx_of =
    with_temp_dir (fun dir ->
        Store.with_store dir (fun store ->
            let ctx = ctx_of store in
            let cold = Grid.run_stats ctx grid in
            [ cold; Grid.run_stats ctx grid ]))
  in
  let serial = Grid.run Request.serial grid in
  let serial_store = cold_then_warm (fun store -> Request.context ~store ()) in
  let stats hits = Some { Mcm_campaign.Sched.total = n; hits; misses = n - hits; decode_failures = 0 } in
  Alcotest.(check bool) "serial store runs: results, then all misses and all hits" true
    (serial_store = [ (serial, stats 0); (serial, stats n) ]);
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check bool) "store-less" true
        (Grid.run_stats (Request.context ~pool ()) grid = (serial, None));
      Alcotest.(check bool) "through a store: results and stats" true
        (cold_then_warm (fun store -> Request.context ~pool ~store ()) = serial_store))

let test_context_domains_conflict () =
  Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.(check int) "matching count accepted" 2
        (Request.context ~pool ~domains:2 ()).Request.domains;
      match Request.context ~pool ~domains:3 () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "a ~domains that conflicts with the pool must be refused")

let () =
  Alcotest.run "pipeline"
    [
      ( "request",
        List.map QCheck_alcotest.to_alcotest
          [ prop_request_json_roundtrips; prop_engine_names_roundtrip ] );
      ( "keys",
        [
          Alcotest.test_case "pinned hex vectors" `Quick test_pinned_key_vectors;
          Alcotest.test_case "fnv1a64 over a long string" `Quick test_fnv_long_string;
          Alcotest.test_case "memo exact across resets" `Quick test_key_memo_reset;
          Alcotest.test_case "memo slot collision" `Quick test_key_memo_slot_collision;
          Alcotest.test_case "memo hit allocation" `Quick test_key_memo_hit_allocation;
          QCheck_alcotest.to_alcotest prop_key_memo_exact;
        ] );
      ( "exec",
        List.map QCheck_alcotest.to_alcotest
          [ prop_exec_rate_equals_engine; prop_exec_store_transparent ] );
      ( "pool",
        [
          Alcotest.test_case "one pool across cells" `Quick test_pool_reused_across_cells;
          Alcotest.test_case "pooled grid" `Quick test_pooled_grid;
          Alcotest.test_case "domains conflict refused" `Quick test_context_domains_conflict;
        ] );
    ]

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
      ("keys", [ Alcotest.test_case "pinned hex vectors" `Quick test_pinned_key_vectors ]);
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

(* Tests for Mcm_util.Pool: the fixed-size domain pool every parallel
   code path in the reproduction runs on. The properties mirror the
   pool's contract — map_array/map_reduce agree with the sequential
   loop/fold for any domain count (including non-commutative folds), a
   task exception neither poisons the pool nor loses the remaining
   tasks, and pools degrade gracefully to the serial loop. *)

module Pool = Mcm_util.Pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* -------------------------------------------------------------------- *)
(* Unit tests                                                             *)

let test_map_array_identity () =
  Pool.with_pool ~domains:4 (fun p ->
      let a = Pool.map_array p ~n:1000 ~f:(fun i -> i * i) in
      check_int "length" 1000 (Array.length a);
      Array.iteri (fun i v -> check_int "slot i holds f i" (i * i) v) a)

let test_map_array_empty () =
  Pool.with_pool ~domains:4 (fun p ->
      check_int "n = 0 gives [||]" 0 (Array.length (Pool.map_array p ~n:0 ~f:(fun i -> i))))

let test_map_reduce_sum () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          let total = Pool.map_reduce p ~n:500 ~map:Fun.id ~fold:( + ) ~init:0 in
          check_int (Printf.sprintf "sum at %d domains" domains) (500 * 499 / 2) total))
    [ 1; 2; 3; 4; 8 ]

let test_map_reduce_fold_order () =
  (* String concatenation is not commutative: equality with the serial
     fold proves results are folded in index order, not arrival order. *)
  let expected = String.concat "" (List.init 100 string_of_int) in
  Pool.with_pool ~domains:8 (fun p ->
      let s = Pool.map_reduce p ~n:100 ~map:string_of_int ~fold:( ^ ) ~init:"" in
      Alcotest.(check string) "index-order fold" expected s)

let test_exception_reraised_and_pool_survives () =
  Pool.with_pool ~domains:4 (fun p ->
      (match Pool.map_array p ~n:64 ~f:(fun i -> if i mod 7 = 3 then failwith "boom" else i) with
      | exception Failure msg -> check "failure propagated" true (msg = "boom")
      | _ -> Alcotest.fail "expected the task exception to re-raise");
      (* The same pool keeps scheduling correctly afterwards. *)
      let a = Pool.map_array p ~n:64 ~f:(fun i -> i + 1) in
      check_int "pool survives" 64 (Array.fold_left max 0 a))

let test_lowest_index_exception_wins () =
  (* Whichever domain fails first in wall-clock time, the caller sees the
     lowest-indexed task's exception — determinism extends to errors. *)
  Pool.with_pool ~domains:4 (fun p ->
      match
        Pool.map_array p ~n:50 ~f:(fun i -> if i >= 10 then failwith (string_of_int i) else i)
      with
      | exception Failure msg -> Alcotest.(check string) "first failing index" "10" msg
      | _ -> Alcotest.fail "expected a failure")

let test_pool_reuse_across_jobs () =
  Pool.with_pool ~domains:3 (fun p ->
      for round = 1 to 20 do
        let total = Pool.map_reduce p ~n:round ~map:Fun.id ~fold:( + ) ~init:0 in
        check_int "round total" (round * (round - 1) / 2) total
      done)

let test_nested_submission_refused () =
  (* A task that submits to its own pool gets Invalid_argument naming
     the misuse; the outer job re-raises it in the caller, and the pool
     still runs the next job correctly. *)
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          (match
             Pool.map_array p ~n:16 ~f:(fun i ->
                 if i = 5 then Array.length (Pool.map_array p ~n:4 ~f:Fun.id) else i)
           with
          | exception Invalid_argument msg ->
              check (Printf.sprintf "%S names a nested submission" msg) true (contains msg "nested")
          | _ -> Alcotest.fail "a nested submission must be refused");
          let a = Pool.map_array p ~n:100 ~f:(fun i -> 3 * i) in
          check (Printf.sprintf "next job at %d domains" domains) true
            (a = Array.init 100 (fun i -> 3 * i))))
    [ 1; 3 ]

let test_domains_accessor () =
  Pool.with_pool ~domains:5 (fun p -> check_int "domains" 5 (Pool.domains p));
  Pool.with_pool ~domains:0 (fun p -> check_int "clamped to 1" 1 (Pool.domains p));
  check "default >= 1" true (Pool.default_domains () >= 1)

let test_shutdown_idempotent_and_degrades () =
  let p = Pool.create ~domains:4 () in
  Pool.shutdown p;
  Pool.shutdown p;
  (* A shut-down pool still runs jobs, in the caller alone. *)
  let a = Pool.map_array p ~n:10 ~f:(fun i -> 2 * i) in
  check_int "runs after shutdown" 18 a.(9)

let test_default_chunk () =
  Pool.with_pool ~domains:4 (fun p ->
      check_int "four claims per domain" 62 (Pool.default_chunk p ~n:1000);
      check_int "clamped to 1" 1 (Pool.default_chunk p ~n:3);
      check_int "n = 0 still 1" 1 (Pool.default_chunk p ~n:0))

let test_chunk_does_not_change_results () =
  (* The chunk size is purely a lock-traffic knob: any value, including
     degenerate ones, must produce the identity result. *)
  let expected = Array.init 257 (fun i -> (i * 31) mod 19) in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          List.iter
            (fun chunk ->
              let a = Pool.map_array ~chunk p ~n:257 ~f:(fun i -> (i * 31) mod 19) in
              check
                (Printf.sprintf "chunk %d at %d domains" chunk domains)
                true (a = expected))
            [ 1; 2; 7; 64; 257; 100000; 0; -5 ]))
    [ 1; 2; 4 ]

let test_chunked_exception_still_lowest_index () =
  Pool.with_pool ~domains:4 (fun p ->
      match
        Pool.map_array ~chunk:3 p ~n:50 ~f:(fun i -> if i >= 10 then failwith (string_of_int i) else i)
      with
      | exception Failure msg -> Alcotest.(check string) "first failing index" "10" msg
      | _ -> Alcotest.fail "expected a failure")

let test_workers_actually_used () =
  (* With worker domains present, tasks that block until another task
     runs concurrently would deadlock a serial executor; instead of
     relying on timing, just record which domains executed tasks. On a
     single-core box all tasks may still land on one domain, so assert
     only that every task ran and the set is non-empty. *)
  Pool.with_pool ~domains:4 (fun p ->
      let ids = Pool.map_array p ~n:200 ~f:(fun _ -> (Domain.self () :> int)) in
      check "every task ran on some domain" true (Array.length ids = 200))

(* -------------------------------------------------------------------- *)
(* Properties                                                             *)

let domains_gen = QCheck.Gen.int_range 1 8

let prop_map_reduce_equals_fold =
  QCheck.Test.make ~count:50 ~name:"map_reduce == sequential fold (any domains)"
    QCheck.(pair (make domains_gen) (small_list small_int))
    (fun (domains, xs) ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let seq = Array.fold_left (fun acc v -> (31 * acc) + v) 7 arr in
      Pool.with_pool ~domains (fun p ->
          Pool.map_reduce p ~n ~map:(fun i -> arr.(i)) ~fold:(fun acc v -> (31 * acc) + v) ~init:7
          = seq))

let prop_map_array_equals_init =
  QCheck.Test.make ~count:50 ~name:"map_array == Array.init (any domains)"
    QCheck.(pair (make domains_gen) small_nat)
    (fun (domains, n) ->
      let f i = (i * 17) mod 13 in
      Pool.with_pool ~domains (fun p -> Pool.map_array p ~n ~f = Array.init n f))

let () =
  Alcotest.run "pool"
    [
      ( "unit",
        [
          Alcotest.test_case "map_array identity" `Quick test_map_array_identity;
          Alcotest.test_case "map_array empty" `Quick test_map_array_empty;
          Alcotest.test_case "map_reduce sum" `Quick test_map_reduce_sum;
          Alcotest.test_case "fold order" `Quick test_map_reduce_fold_order;
          Alcotest.test_case "exception survives" `Quick test_exception_reraised_and_pool_survives;
          Alcotest.test_case "lowest-index exception" `Quick test_lowest_index_exception_wins;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse_across_jobs;
          Alcotest.test_case "nested submission refused" `Quick test_nested_submission_refused;
          Alcotest.test_case "domains accessor" `Quick test_domains_accessor;
          Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent_and_degrades;
          Alcotest.test_case "default chunk" `Quick test_default_chunk;
          Alcotest.test_case "chunk result-invariant" `Quick test_chunk_does_not_change_results;
          Alcotest.test_case "chunked exception" `Quick test_chunked_exception_still_lowest_index;
          Alcotest.test_case "workers used" `Quick test_workers_actually_used;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_map_reduce_equals_fold; prop_map_array_equals_init ] );
    ]

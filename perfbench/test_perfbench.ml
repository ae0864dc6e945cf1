(* The benchmark's own logic: the percentile rule, span self time,
   failure counting, and seed-determinism of every workload's inputs. *)

let span ?(parent = Span.no_parent) id name start stop =
  { Span.id; parent; name; cell = -1; start; stop }

let self_of spans id =
  snd (List.find (fun (s, _) -> s.Span.id = id) (Span.self_times spans))

let close = Alcotest.float 1e-9

let percentile_rule () =
  Alcotest.(check int) "p90 of 100 has 10 beyond" 10 (Stats.beyond ~p:0.9 100);
  Alcotest.(check bool) "p90 needs 100 samples" true (Stats.supports ~p:0.9 100);
  Alcotest.(check bool) "99 samples are too few for p90" false (Stats.supports ~p:0.9 99);
  Alcotest.(check bool) "p50 needs 20" true (Stats.supports ~p:0.5 20);
  Alcotest.(check bool) "19 are too few for p50" false (Stats.supports ~p:0.5 19);
  Alcotest.(check bool) "p99 needs 1000" false (Stats.supports ~p:0.99 999);
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check close "nearest-rank p90" 90. (fst (Stats.tail ~p:0.9 xs));
  Alcotest.check close "nearest-rank p50" 50. (fst (Stats.tail ~p:0.5 xs));
  Alcotest.check close "even median" 50.5 (Stats.median xs);
  let tail ~p n = Stats.tail ~p (List.init n (fun i -> float_of_int (i + 1))) in
  let value_at = Alcotest.(pair close close) in
  Alcotest.check value_at "supported p90 is p90" (90., 0.9) (tail ~p:0.9 100);
  Alcotest.check value_at "65 samples: rank 55 keeps ten beyond" (55., 55. /. 65.) (tail ~p:0.9 65);
  Alcotest.check value_at "ten or fewer samples: the median" (3., 0.6) (tail ~p:0.9 5);
  Alcotest.check value_at "p50 unaffected with 20 samples" (10., 0.5) (tail ~p:0.5 20)

let self_time () =
  (* A root [0,10] with adjacent children [1,3] and [3,5], an
     overlapping pair [6,8] and [7,9], and a grandchild under [1,3]. *)
  let spans =
    [
      span 0 "round" 0. 10.;
      span ~parent:0 1 "a" 1. 3.;
      span ~parent:0 2 "b" 3. 5.;
      span ~parent:0 3 "c" 6. 8.;
      span ~parent:0 4 "c" 7. 9.;
      span ~parent:1 5 "d" 1.5 2.5;
    ]
  in
  Alcotest.check close "root minus the union of its children" 3. (self_of spans 0);
  Alcotest.check close "nested child minus its grandchild" 1. (self_of spans 1);
  Alcotest.check close "leaf" 2. (self_of spans 2);
  let by_name = Span.self_by_name spans in
  Alcotest.check close "root self time is unattributed" 3. (Hashtbl.find by_name "unattributed");
  Alcotest.check close "same-named spans add up" 4. (Hashtbl.find by_name "c");
  Alcotest.check close "a child reaching outside its parent is clipped" 0.5
    (Span.covered ~lo:0. ~hi:1. [ (0.5, 3.) ])

let failed_ratio () =
  let t = Stats.tally () in
  Alcotest.(check bool) "nothing attempted is not correct" false (Stats.correct t);
  List.iter (fun ok -> Stats.check t ok "cell") [ true; true; false; true ];
  Stats.count t ~attempted:4 ~failed:2 "batch";
  Stats.count t ~attempted:2 ~failed:0 "clean batch";
  Alcotest.(check int) "attempted" 10 t.Stats.attempted;
  Alcotest.(check int) "failed" 3 t.Stats.failed;
  Alcotest.check close "ratio" 0.3 (Stats.failed_ratio t);
  Alcotest.(check bool) "a failure makes the run incorrect" false (Stats.correct t);
  Alcotest.(check (list string)) "failures kept in order" [ "batch"; "cell" ] t.Stats.first_failures

let sources = [| "test A\nthread P0\n  store x 1\n"; "test B\nthread P0\n  store y 1\n" |]
let names = [| "MP-CO-m"; "CoRR-m"; "SB" |]

(* Each workload's inputs for one round, as the bytes the program sees. *)
let corpus_bytes seed round = Inputs.corpus_to_string (Inputs.corpus_round ~seed ~round)
let fig5_bytes seed round = Inputs.fig5_to_string (Inputs.fig5_config ~seed ~round)
let serve_bytes seed round =
  Inputs.serve_to_string (Inputs.serve_round ~seed ~sources ~names ~round)

let deterministic () =
  List.iter
    (fun (what, bytes) ->
      List.iter
        (fun seed ->
          List.iter
            (fun round -> Alcotest.(check string) what (bytes seed round) (bytes seed round))
            [ 0; 1; 47; 48; 200 ])
        [ 1; 20230325 ];
      Alcotest.(check bool) (what ^ ": seeds differ") false (bytes 1 3 = bytes 2 3))
    [ ("corpus", corpus_bytes); ("fig5", fig5_bytes); ("serve", serve_bytes) ]

let shapes () =
  let shard round =
    fst (Option.get (Inputs.corpus_round ~seed:7 ~round).Inputs.meta.Mcm_corpus.Corpus.shard)
  in
  Alcotest.(check (list int))
    "one pass visits every shard once"
    (List.init Inputs.corpus_shards Fun.id)
    (List.sort compare (List.init Inputs.corpus_shards shard));
  let rd = Inputs.serve_round ~seed:7 ~sources ~names ~round:5 in
  let cold_a = List.filteri (fun i _ -> i < 4) rd.Inputs.a in
  Alcotest.(check int) "six cold cells" 6 (List.length rd.Inputs.cold);
  Alcotest.(check bool) "client 1 duplicates client 0's last cold cells" true
    (List.filteri (fun i _ -> i < 2) rd.Inputs.b = List.filteri (fun i _ -> i >= 2) cold_a);
  let cold round = (Inputs.serve_round ~seed:7 ~sources ~names ~round).Inputs.cold in
  let earlier = List.concat_map cold [ 0; 1; 2; 3; 4 ] in
  Alcotest.(check bool) "warm repeats were cold in an earlier round" true
    (List.for_all (fun c -> List.mem c earlier) rd.Inputs.warm);
  Alcotest.(check int) "round 0 has no warm repeats" 0
    (List.length (Inputs.serve_round ~seed:7 ~sources ~names ~round:0).Inputs.warm)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "self time" `Quick self_time;
          Alcotest.test_case "failed ratio" `Quick failed_ratio;
          Alcotest.test_case "inputs deterministic in the seed" `Quick deterministic;
          Alcotest.test_case "input shapes" `Quick shapes;
        ] );
    ]

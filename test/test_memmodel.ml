(* Tests for mcm_memmodel: relation algebra, derived execution relations,
   and the three MCS consistency checkers. *)

module Event = Mcm_memmodel.Event
module Relation = Mcm_memmodel.Relation
module Execution = Mcm_memmodel.Execution
module Model = Mcm_memmodel.Model

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -------------------------------------------------------------------- *)
(* Event helpers                                                          *)

let ev id tid idx kind =
  { Event.id; tid; idx; wg = tid; scope = Mcm_memmodel.Scope.Device; kind }

let test_event_predicates () =
  let r = ev 0 0 0 (Event.Read { loc = 0 }) in
  let w = ev 1 0 1 (Event.Write { loc = 0; value = 1 }) in
  let u = ev 2 1 0 (Event.Rmw { loc = 0; value = 2 }) in
  let f = ev 3 1 1 Event.Fence in
  check "read is read" true (Event.is_read r);
  check "read not write" false (Event.is_write r);
  check "write is write" true (Event.is_write w);
  check "rmw is read" true (Event.is_read u);
  check "rmw is write" true (Event.is_write u);
  check "rmw is rmw" true (Event.is_rmw u);
  check "fence is fence" true (Event.is_fence f);
  check "fence no loc" true (Event.loc f = None);
  check "write value" true (Event.written_value w = Some 1);
  check "read no value" true (Event.written_value r = None);
  check "same loc" true (Event.same_loc r w);
  check "fence same_loc false" false (Event.same_loc r f)

let test_event_pp () =
  let w = ev 1 0 1 (Event.Write { loc = 0; value = 1 }) in
  Alcotest.(check string) "pp" "[t0.1 W x=1]" (Event.to_string w)

(* -------------------------------------------------------------------- *)
(* Relation algebra                                                       *)

let test_relation_basics () =
  let r = Relation.of_list 4 [ (0, 1); (1, 2) ] in
  check "mem" true (Relation.mem r 0 1);
  check "not mem" false (Relation.mem r 1 0);
  check_int "cardinal" 2 (Relation.cardinal r);
  check_int "size" 4 (Relation.size r);
  Alcotest.(check (list (pair int int))) "to_list" [ (0, 1); (1, 2) ] (Relation.to_list r)

let test_relation_add_immutable () =
  let r = Relation.empty 3 in
  let r' = Relation.add r 0 1 in
  check "original unchanged" false (Relation.mem r 0 1);
  check "new has pair" true (Relation.mem r' 0 1)

let test_relation_union_inter () =
  let r = Relation.of_list 3 [ (0, 1) ] in
  let s = Relation.of_list 3 [ (0, 1); (1, 2) ] in
  check_int "union" 2 (Relation.cardinal (Relation.union r s));
  check_int "inter" 1 (Relation.cardinal (Relation.inter r s));
  check "subset" true (Relation.subset r s);
  check "not subset" false (Relation.subset s r)

let test_relation_compose () =
  let r = Relation.of_list 4 [ (0, 1); (2, 3) ] in
  let s = Relation.of_list 4 [ (1, 2) ] in
  let c = Relation.compose r s in
  Alcotest.(check (list (pair int int))) "compose" [ (0, 2) ] (Relation.to_list c)

let test_relation_inverse () =
  let r = Relation.of_list 3 [ (0, 1); (1, 2) ] in
  Alcotest.(check (list (pair int int)))
    "inverse" [ (1, 0); (2, 1) ]
    (Relation.to_list (Relation.inverse r))

let test_relation_closure () =
  let r = Relation.of_list 4 [ (0, 1); (1, 2); (2, 3) ] in
  let c = Relation.transitive_closure r in
  check "0 reaches 3" true (Relation.mem c 0 3);
  check "3 unreaches 0" false (Relation.mem c 3 0);
  check_int "closure size" 6 (Relation.cardinal c)

let test_relation_acyclicity () =
  check "chain acyclic" true (Relation.is_acyclic (Relation.of_list 3 [ (0, 1); (1, 2) ]));
  check "cycle detected" false (Relation.is_acyclic (Relation.of_list 3 [ (0, 1); (1, 0) ]));
  check "self-loop cyclic" false (Relation.is_acyclic (Relation.of_list 2 [ (1, 1) ]));
  check "empty acyclic" true (Relation.is_acyclic (Relation.empty 0))

let test_relation_find_cycle () =
  let r = Relation.of_list 4 [ (0, 1); (1, 2); (2, 0); (2, 3) ] in
  (match Relation.find_cycle r with
  | None -> Alcotest.fail "expected cycle"
  | Some cycle ->
      check_int "cycle length" 3 (List.length cycle);
      (* Each consecutive pair must be an edge, wrapping around. *)
      let arr = Array.of_list cycle in
      let n = Array.length arr in
      for i = 0 to n - 1 do
        check "cycle edge" true (Relation.mem r arr.(i) arr.((i + 1) mod n))
      done);
  check "acyclic finds none" true (Relation.find_cycle (Relation.of_list 2 [ (0, 1) ]) = None)

let test_relation_total_order () =
  let r = Relation.of_list 3 [ (0, 1); (1, 2); (0, 2) ] in
  check "total order" true (Relation.is_total_order_on r [ 0; 1; 2 ]);
  let partial = Relation.of_list 3 [ (0, 1) ] in
  check "partial not total" false (Relation.is_total_order_on partial [ 0; 1; 2 ]);
  check "subset still total" true (Relation.is_total_order_on partial [ 0; 1 ])

let test_relation_restrict () =
  let r = Relation.of_list 4 [ (0, 1); (1, 2); (2, 3) ] in
  let even = Relation.restrict r (fun a _ -> a mod 2 = 0) in
  Alcotest.(check (list (pair int int))) "restricted" [ (0, 1); (2, 3) ] (Relation.to_list even)

let test_relation_bounds_checked () =
  let r = Relation.empty 2 in
  Alcotest.check_raises "out of bounds" (Invalid_argument "Relation: index out of bounds")
    (fun () -> ignore (Relation.mem r 0 5))

(* -------------------------------------------------------------------- *)
(* Executions: the MP example from Fig. 2b without fences.                *)

(* Events: 0:Wx=1 1:Wy=1 (thread 0); 2:Ry 3:Rx (thread 1). *)
let mp_events =
  [|
    ev 0 0 0 (Event.Write { loc = 0; value = 1 });
    ev 1 0 1 (Event.Write { loc = 1; value = 1 });
    ev 2 1 0 (Event.Read { loc = 1 });
    ev 3 1 1 (Event.Read { loc = 0 });
  |]

let mp_weak =
  (* Ry reads the flag (1), Rx reads the initial state: the weak MP
     execution. *)
  {
    Execution.events = mp_events;
    rf = [| None; None; Some 1; None |];
    co = [ (0, [ 0 ]); (1, [ 1 ]) ];
  }

let test_execution_well_formed () =
  check "well-formed" true (Execution.well_formed mp_weak = Ok ())

let test_execution_rejects_bad_rf () =
  let bad = { mp_weak with Execution.rf = [| None; None; Some 0; None |] } in
  (* event 2 reads y but rf source writes x *)
  check "bad rf loc" true (Result.is_error (Execution.well_formed bad))

let test_execution_rejects_bad_co () =
  let bad = { mp_weak with Execution.co = [ (0, [ 0 ]) ] } in
  check "missing co loc" true (Result.is_error (Execution.well_formed bad))

let test_value_read () =
  check_int "flag read" 1 (Execution.value_read mp_weak 2);
  check_int "stale read" 0 (Execution.value_read mp_weak 3)

let test_derived_relations () =
  let r = Execution.relations mp_weak in
  check "po within t0" true (Relation.mem r.Execution.po 0 1);
  check "po within t1" true (Relation.mem r.Execution.po 2 3);
  check "no cross-thread po" false (Relation.mem r.Execution.po 1 2);
  check "po_loc empty here" true (Relation.cardinal r.Execution.po_loc = 0);
  check "rf edge" true (Relation.mem r.Execution.rf 1 2);
  check "fr: stale read before write" true (Relation.mem r.Execution.fr 3 0);
  check "com contains rf" true (Relation.subset r.Execution.rf r.Execution.com);
  check "com contains fr" true (Relation.subset r.Execution.fr r.Execution.com);
  check "no fences, no sw" true (Relation.cardinal r.Execution.sw = 0)

let test_mp_weak_consistency () =
  (* The weak MP execution violates SC but satisfies SC-per-location. *)
  check "inconsistent under SC" false (Model.consistent Model.Sc mp_weak);
  check "consistent under SC-per-loc" true (Model.consistent Model.Sc_per_location mp_weak);
  check "consistent under rel-acq (no fences)" true
    (Model.consistent Model.Relacq_sc_per_location mp_weak)

(* MP with fences: events 0:Wx 1:F 2:Wy (t0); 3:Ry 4:F 5:Rx (t1). *)
let mp_fence_events =
  [|
    ev 0 0 0 (Event.Write { loc = 0; value = 1 });
    ev 1 0 1 Event.Fence;
    ev 2 0 2 (Event.Write { loc = 1; value = 1 });
    ev 3 1 0 (Event.Read { loc = 1 });
    ev 4 1 1 Event.Fence;
    ev 5 1 2 (Event.Read { loc = 0 });
  |]

let mp_fence_weak =
  {
    Execution.events = mp_fence_events;
    rf = [| None; None; None; Some 2; None; None |];
    co = [ (0, [ 0 ]); (1, [ 2 ]) ];
  }

let test_sw_derived () =
  let r = Execution.relations mp_fence_weak in
  check "sw between fences" true (Relation.mem r.Execution.sw 1 4);
  check "sw not reversed" false (Relation.mem r.Execution.sw 4 1);
  check "po;sw;po orders data" true (Relation.mem r.Execution.po_sw_po 0 5)

let test_mp_fence_weak_consistency () =
  (* Fig. 2b: the stale data read is allowed under SC-per-location but
     disallowed once the fences' sw enters hb. *)
  check "consistent under SC-per-loc" true (Model.consistent Model.Sc_per_location mp_fence_weak);
  check "inconsistent under rel-acq" false
    (Model.consistent Model.Relacq_sc_per_location mp_fence_weak)

let test_hb_cycle_description () =
  match Model.hb_cycle Model.Relacq_sc_per_location mp_fence_weak with
  | None -> Alcotest.fail "expected a cycle"
  | Some s -> check "cycle non-empty" true (String.length s > 0)

(* RMW atomicity: x: W(1) at event 0, RMW(2) at event 1 (thread 1 reads
   initial state), W(3) at event 2. *)
let test_rmw_atomicity () =
  let events =
    [|
      ev 0 0 0 (Event.Write { loc = 0; value = 1 });
      ev 1 1 0 (Event.Rmw { loc = 0; value = 2 });
      ev 2 2 0 (Event.Write { loc = 0; value = 3 });
    |]
  in
  (* RMW reads init: must be first in co. *)
  let atomic =
    { Execution.events; rf = [| None; None; None |]; co = [ (0, [ 1; 0; 2 ]) ] }
  in
  check "rmw first ok" true (Model.rmw_atomic atomic);
  let broken =
    { Execution.events; rf = [| None; None; None |]; co = [ (0, [ 0; 1; 2 ]) ] }
  in
  check "write intervenes" false (Model.rmw_atomic broken);
  (* RMW reads event 0: must be immediately after it. *)
  let chained =
    { Execution.events; rf = [| None; Some 0; None |]; co = [ (0, [ 0; 1; 2 ]) ] }
  in
  check "rmw after source ok" true (Model.rmw_atomic chained);
  let separated =
    { Execution.events; rf = [| None; Some 0; None |]; co = [ (0, [ 0; 2; 1 ]) ] }
  in
  check "separated from source" false (Model.rmw_atomic separated)

(* [rmw_atomic] and [atomicity_violation] share one placement scan:
   they agree on every candidate of every library and suite test, and
   the check allocates nothing when every RMW is placed. *)
let test_rmw_scan_agrees () =
  let tests =
    Mcm_litmus.Library.all
    @ List.map (fun (e : Mcm_core.Suite.entry) -> e.Mcm_core.Suite.test) (Mcm_core.Suite.all ())
  in
  let placed = ref [] in
  List.iter
    (fun t ->
      Mcm_litmus.Enumerate.iter t ~f:(fun x ->
          let atomic = Model.rmw_atomic x in
          if atomic && Array.exists Event.is_rmw x.Execution.events then placed := x :: !placed;
          check
            (t.Mcm_litmus.Litmus.name ^ ": rmw_atomic x = (atomicity_violation x = None)")
            atomic
            (Model.atomicity_violation x = None)))
    tests;
  check "some candidate places every RMW" true (!placed <> []);
  let x = List.hd !placed in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Model.rmw_atomic x))
  done;
  let words = Gc.minor_words () -. before in
  check
    (Printf.sprintf "10000 placed scans allocate nothing (%.0f words)" words)
    true (words < 1000.)

let test_model_names_roundtrip () =
  List.iter
    (fun m -> check (Model.name m) true (Model.of_string (Model.name m) = Some m))
    Model.all;
  check "unknown name" true (Model.of_string "tso" = None)

let test_model_strength_chain () =
  check "sc-per-loc weaker than relacq" true
    (Model.weaker_or_equal Model.Sc_per_location Model.Relacq_sc_per_location);
  check "relacq weaker than sc" true
    (Model.weaker_or_equal Model.Relacq_sc_per_location Model.Sc);
  check "sc not weaker than sc-per-loc" false
    (Model.weaker_or_equal Model.Sc Model.Sc_per_location)

(* -------------------------------------------------------------------- *)
(* CAT: parameterized models                                              *)

module Cat = Mcm_memmodel.Cat

let test_cat_matches_direct_models () =
  (* The CAT formulations agree with the direct implementations on the
     example executions of this file. *)
  List.iter
    (fun x ->
      List.iter
        (fun m ->
          check
            (Printf.sprintf "%s agrees" (Model.name m))
            true
            (Model.consistent m x = Cat.consistent (Cat.of_model m) x))
        Model.all)
    [ mp_weak; mp_fence_weak ]

let test_cat_eval_algebra () =
  let r = Execution.relations mp_weak in
  check "union" true
    (Relation.equal (Cat.eval (Cat.Union (Cat.Po, Cat.Rf)) mp_weak)
       (Relation.union r.Execution.po r.Execution.rf));
  check "diff removes" true
    (Relation.cardinal (Cat.eval (Cat.Diff (Cat.Po, Cat.Po)) mp_weak) = 0);
  check "seq" true
    (Relation.equal
       (Cat.eval (Cat.Seq (Cat.Po, Cat.Po)) mp_weak)
       (Relation.compose r.Execution.po r.Execution.po));
  check "inverse" true
    (Relation.equal (Cat.eval (Cat.Inverse Cat.Rf) mp_weak) (Relation.inverse r.Execution.rf));
  check "internal po is po" true
    (Relation.equal (Cat.eval (Cat.Internal Cat.Po) mp_weak) r.Execution.po);
  check "external po empty" true
    (Relation.cardinal (Cat.eval (Cat.External Cat.Po) mp_weak) = 0);
  check "external rf is rf here" true
    (Relation.equal (Cat.eval (Cat.External Cat.Rf) mp_weak) r.Execution.rf);
  (* Restrict: po pairs from writes to writes = the (Wx, Wy) pair. *)
  check "restrict" true
    (Relation.to_list (Cat.eval (Cat.Restrict (Cat.Writes, Cat.Po, Cat.Writes)) mp_weak)
    = [ (0, 1) ])

let test_cat_tso_allows_store_buffering () =
  (* SB events: 0:Wx 1:Ry (t0); 2:Wy 3:Rx (t1); both reads from the
     initial state. *)
  let events =
    [|
      ev 0 0 0 (Event.Write { loc = 0; value = 1 });
      ev 1 0 1 (Event.Read { loc = 1 });
      ev 2 1 0 (Event.Write { loc = 1; value = 1 });
      ev 3 1 1 (Event.Read { loc = 0 });
    |]
  in
  let sb_weak =
    { Execution.events; rf = [| None; None; None; None |]; co = [ (0, [ 0 ]); (1, [ 2 ]) ] }
  in
  check "SC forbids SB" false (Cat.consistent Cat.sc sb_weak);
  check "TSO allows SB" true (Cat.consistent Cat.tso sb_weak);
  (* A fence between the store and the load of each thread restores SC:
     0:Wx 1:F 2:Ry (t0); 3:Wy 4:F 5:Rx (t1). *)
  let fenced =
    [|
      ev 0 0 0 (Event.Write { loc = 0; value = 1 });
      ev 1 0 1 Event.Fence;
      ev 2 0 2 (Event.Read { loc = 1 });
      ev 3 1 0 (Event.Write { loc = 1; value = 1 });
      ev 4 1 1 Event.Fence;
      ev 5 1 2 (Event.Read { loc = 0 });
    |]
  in
  let sb_fenced =
    {
      Execution.events = fenced;
      rf = [| None; None; None; None; None; None |];
      co = [ (0, [ 0 ]); (1, [ 3 ]) ];
    }
  in
  check "TSO forbids fenced SB" false (Cat.consistent Cat.tso sb_fenced)

let test_cat_tso_forbids_mp () =
  check "TSO forbids weak MP" false (Cat.consistent Cat.tso mp_weak);
  match Cat.failing_axiom Cat.tso mp_weak with
  | Some name -> Alcotest.(check string) "ghb axiom" "ghb" name
  | None -> Alcotest.fail "expected a failing axiom"

let test_cat_failing_axiom_names () =
  check "consistent has none" true (Cat.failing_axiom Cat.sc_per_location mp_weak = None);
  let broken_atomicity =
    {
      Execution.events =
        [|
          ev 0 0 0 (Event.Write { loc = 0; value = 1 });
          ev 1 1 0 (Event.Rmw { loc = 0; value = 2 });
        |];
      rf = [| None; None |];
      (* The RMW reads the initial state but sits after the write. *)
      co = [ (0, [ 0; 1 ]) ];
    }
  in
  check "atomicity reported" true (Cat.failing_axiom Cat.tso broken_atomicity = Some "atomicity")

let test_cat_find () =
  check "find tso" true (Cat.find "tso" <> None);
  check "find sc" true (Cat.find "SC" <> None);
  check "find nothing" true (Cat.find "power" = None)

let test_cat_pretty_printing () =
  Alcotest.(check string) "base" "po-loc" (Cat.expr_to_string Cat.Po_loc);
  Alcotest.(check string) "union" "po | com" (Cat.expr_to_string (Cat.Union (Cat.Po, Cat.Com)));
  Alcotest.(check string) "restrict" "[W];po;[R]"
    (Cat.expr_to_string (Cat.Restrict (Cat.Writes, Cat.Po, Cat.Reads)));
  Alcotest.(check string) "diff parenthesises" "po \\ ([W];po;[R])"
    (Cat.expr_to_string (Cat.Diff (Cat.Po, Cat.Restrict (Cat.Writes, Cat.Po, Cat.Reads))));
  Alcotest.(check string) "external" "ext(rf)" (Cat.expr_to_string (Cat.External Cat.Rf));
  let rendered = Format.asprintf "%a" Cat.pp Cat.tso in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check "tso renders ghb" true (contains rendered "ghb");
  check "tso renders atomicity note" true (contains rendered "RMW atomicity")

(* -------------------------------------------------------------------- *)
(* Properties                                                             *)

let arbitrary_relation =
  QCheck.make
    ~print:(fun pairs -> QCheck.Print.(list (pair int int)) pairs)
    QCheck.Gen.(
      let n = 6 in
      list_size (int_bound 12) (pair (int_bound (n - 1)) (int_bound (n - 1))))

let rel_of pairs = Relation.of_list 6 pairs

let prop_closure_idempotent =
  QCheck.Test.make ~count:300 ~name:"transitive closure is idempotent" arbitrary_relation
    (fun pairs ->
      let c = Relation.transitive_closure (rel_of pairs) in
      Relation.equal c (Relation.transitive_closure c))

let prop_closure_contains =
  QCheck.Test.make ~count:300 ~name:"closure contains the relation" arbitrary_relation
    (fun pairs ->
      let r = rel_of pairs in
      Relation.subset r (Relation.transitive_closure r))

let prop_union_commutative =
  QCheck.Test.make ~count:300 ~name:"union commutes"
    (QCheck.pair arbitrary_relation arbitrary_relation) (fun (p1, p2) ->
      Relation.equal (Relation.union (rel_of p1) (rel_of p2))
        (Relation.union (rel_of p2) (rel_of p1)))

let prop_inverse_involutive =
  QCheck.Test.make ~count:300 ~name:"inverse is involutive" arbitrary_relation (fun pairs ->
      let r = rel_of pairs in
      Relation.equal r (Relation.inverse (Relation.inverse r)))

let prop_compose_associative =
  QCheck.Test.make ~count:200 ~name:"composition associates"
    (QCheck.triple arbitrary_relation arbitrary_relation arbitrary_relation)
    (fun (p1, p2, p3) ->
      let a = rel_of p1 and b = rel_of p2 and c = rel_of p3 in
      Relation.equal
        (Relation.compose (Relation.compose a b) c)
        (Relation.compose a (Relation.compose b c)))

let prop_acyclic_iff_no_cycle_found =
  QCheck.Test.make ~count:300 ~name:"find_cycle agrees with is_acyclic" arbitrary_relation
    (fun pairs ->
      let r = rel_of pairs in
      Relation.is_acyclic r = (Relation.find_cycle r = None))

(* The specification of acyclicity: the transitive closure's diagonal
   is empty. The library decides it by depth-first search instead. *)
let closure_acyclic r =
  let c = Relation.transitive_closure r in
  List.for_all (fun a -> not (Relation.mem c a a)) (List.init (Relation.size r) Fun.id)

let sized_relation =
  QCheck.make
    ~print:(fun (n, pairs) -> Printf.sprintf "n=%d %s" n (QCheck.Print.(list (pair int int)) pairs))
    QCheck.Gen.(
      int_range 1 9 >>= fun n ->
      map
        (fun pairs -> (n, pairs))
        (list_size (int_bound (2 * n)) (pair (int_bound (n - 1)) (int_bound (n - 1)))))

let prop_acyclic_is_closure_diagonal =
  QCheck.Test.make ~count:1000 ~name:"is_acyclic iff the transitive closure's diagonal is empty"
    sized_relation (fun (n, pairs) ->
      let r = Relation.of_list n pairs in
      Relation.is_acyclic r = closure_acyclic r)

(* -------------------------------------------------------------------- *)
(* Incremental closure (Relation.Closure): the propagation engine's
   workhorse. Its contract is checked against the immutable relation
   algebra as the reference implementation.                              *)

let test_closure_basics () =
  let c = Relation.Closure.create 4 in
  check "add 0->1" true (Relation.Closure.add c 0 1);
  check "add 1->2" true (Relation.Closure.add c 1 2);
  check "reaches transitively" true (Relation.Closure.reaches c 0 2);
  check "no reverse reach" false (Relation.Closure.reaches c 2 0);
  check "cycle-closing add refused" false (Relation.Closure.add c 2 0);
  check "refused add left state unchanged" false (Relation.Closure.reaches c 2 0);
  check "self edge refused" false (Relation.Closure.add c 3 3);
  check "duplicate add is a no-op success" true (Relation.Closure.add c 0 1);
  check "copy is independent" true
    (let d = Relation.Closure.copy c in
     ignore (Relation.Closure.add d 0 3);
     Relation.Closure.reaches d 0 3 && not (Relation.Closure.reaches c 0 3))

let test_closure_of_relation () =
  let acyclic = rel_of [ (0, 1); (1, 2); (3, 4) ] in
  (match Relation.Closure.of_relation acyclic with
  | None -> Alcotest.fail "of_relation rejected an acyclic relation"
  | Some c ->
      check "to_relation = transitive_closure" true
        (Relation.equal (Relation.Closure.to_relation c) (Relation.transitive_closure acyclic)));
  check "cyclic relation rejected" true
    (Relation.Closure.of_relation (rel_of [ (0, 1); (1, 0) ]) = None)

(* Replay a random edge list through the incremental closure and through
   the immutable algebra side by side: each add must succeed exactly
   when the edge keeps the accumulated graph acyclic (and is not a
   self-loop), and the final closure must be the transitive closure of
   the accepted edges. *)
let prop_closure_add_tracks_acyclicity =
  QCheck.Test.make ~count:300 ~name:"Closure.add accepts exactly the acyclicity-preserving edges"
    arbitrary_relation (fun pairs ->
      let c = Relation.Closure.create 6 in
      let kept = ref [] in
      List.for_all
        (fun (a, b) ->
          let expected =
            a <> b && Relation.is_acyclic (rel_of ((a, b) :: !kept))
          in
          let got = Relation.Closure.add c a b in
          if got then kept := (a, b) :: !kept;
          got = expected)
        pairs
      && Relation.equal (Relation.Closure.to_relation c)
           (Relation.transitive_closure (rel_of !kept)))

let prop_closure_roundtrip =
  QCheck.Test.make ~count:300 ~name:"of_relation/to_relation is the transitive closure"
    arbitrary_relation (fun pairs ->
      let r = rel_of pairs in
      match Relation.Closure.of_relation r with
      | Some c -> Relation.equal (Relation.Closure.to_relation c) (Relation.transitive_closure r)
      | None -> not (Relation.is_acyclic r))

(* -------------------------------------------------------------------- *)
(* The derived relations against their specification                     *)

(* The specification: every relation folded from Relation.add, which
   copies the whole matrix per edge, with the compositions and unions
   spelled out. The library builds each relation in one fresh matrix;
   every field must come out equal. *)
let spec_static_po events =
  let n = Array.length events in
  let po = ref (Relation.empty n) in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      let ea = events.(a) and eb = events.(b) in
      if ea.Event.tid = eb.Event.tid && ea.Event.idx < eb.Event.idx then po := Relation.add !po a b
    done
  done;
  let po = !po in
  let po_loc = Relation.restrict po (fun a b -> Event.same_loc events.(a) events.(b)) in
  (po, po_loc)

let spec_relations (x : Execution.t) =
  let n = Array.length x.events in
  let po, po_loc = spec_static_po x.events in
  let rf = ref (Relation.empty n) in
  Array.iteri
    (fun r src ->
      match src with Some w when Event.is_read x.events.(r) -> rf := Relation.add !rf w r | _ -> ())
    x.rf;
  let rf = !rf in
  let co = ref (Relation.empty n) in
  let rec pairs = function
    | [] -> ()
    | w :: rest ->
        List.iter (fun w' -> co := Relation.add !co w w') rest;
        pairs rest
  in
  List.iter (fun (_, order) -> pairs order) x.co;
  let co = !co in
  let fr = ref (Relation.empty n) in
  Array.iteri
    (fun r e ->
      if Event.is_read e then
        match Event.loc e with
        | None -> ()
        | Some l ->
            let order = try List.assoc l x.co with Not_found -> [] in
            let later =
              match x.rf.(r) with
              | None -> order
              | Some s ->
                  let rec after = function
                    | [] -> []
                    | w :: rest -> if w = s then rest else after rest
                  in
                  after order
            in
            List.iter (fun w' -> if w' <> r then fr := Relation.add !fr r w') later)
    x.events;
  let fr = !fr in
  let com = Relation.union rf (Relation.union co fr) in
  let sw = ref (Relation.empty n) in
  for f_r = 0 to n - 1 do
    for f_a = 0 to n - 1 do
      let er = x.events.(f_r) and ea = x.events.(f_a) in
      if
        Event.is_fence er && Event.is_fence ea
        && er.Event.tid <> ea.Event.tid
        && Mcm_memmodel.Scope.covers er.Event.scope ~own:er.Event.wg ~other:ea.Event.wg
        && Mcm_memmodel.Scope.covers ea.Event.scope ~own:ea.Event.wg ~other:er.Event.wg
      then begin
        let linked = ref false in
        for w = 0 to n - 1 do
          if Relation.mem po f_r w && Event.is_write x.events.(w) then
            for r = 0 to n - 1 do
              if Relation.mem po r f_a && Event.is_read x.events.(r) && x.rf.(r) = Some w then
                linked := true
            done
        done;
        if !linked then sw := Relation.add !sw f_r f_a
      end
    done
  done;
  let sw = !sw in
  let po_sw_po = Relation.compose po (Relation.compose sw po) in
  { Execution.po; po_loc; rf; co; fr; com; sw; po_sw_po }

let spec_hb m (r : Execution.relations) =
  let base = match Model.hb_base m with `Po -> r.Execution.po | `Po_loc -> r.Execution.po_loc in
  let base = if Model.hb_includes_sw m then Relation.union base r.Execution.po_sw_po else base in
  Relation.union base r.Execution.com

let spec_consistent m x = Model.rmw_atomic x && closure_acyclic (spec_hb m (spec_relations x))

let spec_hb_cycle m x =
  match Relation.find_cycle (spec_hb m (spec_relations x)) with
  | None -> None
  | Some cycle ->
      let names = List.map (Execution.event_name x) cycle in
      Some (String.concat " -> " (names @ [ List.hd names ]))

(* Every candidate of the library, the paper suite and one shard of the
   scoped 2x5x2 corpus (fences of both scopes), under both layouts. *)
let spec_tests =
  lazy
    (Mcm_litmus.Library.all
    @ List.map (fun (e : Mcm_core.Suite.entry) -> e.Mcm_core.Suite.test) (Mcm_core.Suite.all ())
    @
    match Mcm_corpus.Shape.of_spec ~fence:true ~wg_fence:true "2x5x2" with
    | Error e -> failwith e
    | Ok shape ->
        List.map
          (fun (e : Mcm_corpus.Admit.entry) -> e.Mcm_corpus.Admit.test)
          (Mcm_corpus.Corpus.generate
             { Mcm_corpus.Corpus.default_meta with shape; shard = Some (0, 48) })
            .Mcm_corpus.Corpus.entries)

let iter_spec_candidates f =
  List.iter
    (fun t ->
      List.iter
        (fun layout -> Mcm_litmus.Enumerate.iter ~layout t ~f:(f t))
        Mcm_memmodel.Scope.[ Inter; Intra ])
    (Lazy.force spec_tests)

let test_relations_match_spec () =
  let seen = ref 0 in
  iter_spec_candidates (fun t x ->
      incr seen;
      let r = Execution.relations x and s = spec_relations x in
      let po, po_loc = Execution.static_po x.Execution.events in
      let field name a b =
        if not (Relation.equal a b) then
          Alcotest.failf "%s: %s differs from its specification on@.%a" t.Mcm_litmus.Litmus.name
            name Execution.pp x
      in
      field "static po" po s.Execution.po;
      field "static po_loc" po_loc s.Execution.po_loc;
      field "po" r.Execution.po s.Execution.po;
      field "po_loc" r.Execution.po_loc s.Execution.po_loc;
      field "rf" r.Execution.rf s.Execution.rf;
      field "co" r.Execution.co s.Execution.co;
      field "fr" r.Execution.fr s.Execution.fr;
      field "com" r.Execution.com s.Execution.com;
      field "sw" r.Execution.sw s.Execution.sw;
      field "po_sw_po" r.Execution.po_sw_po s.Execution.po_sw_po);
  check "candidates visited" true (!seen > 5_000)

let test_model_matches_spec () =
  let inconsistent = ref 0 in
  iter_spec_candidates (fun t x ->
      let r = Execution.relations x in
      List.iter
        (fun m ->
          let what = Printf.sprintf "%s under %s" t.Mcm_litmus.Litmus.name (Model.name m) in
          let consistent = spec_consistent m x and cycle = spec_hb_cycle m x in
          if not consistent then incr inconsistent;
          check (what ^ ": consistent") consistent (Model.consistent m x);
          check (what ^ ": consistent_with") consistent (Model.consistent_with m x r);
          Alcotest.(check (option string)) (what ^ ": hb_cycle") cycle (Model.hb_cycle m x);
          Alcotest.(check (option string))
            (what ^ ": hb_cycle_with") cycle (Model.hb_cycle_with m x r))
        Model.all);
  check "some candidates inconsistent" true (!inconsistent > 0)

(* static_po must agree with the po/po_loc the full relation derivation
   computes — it is the piece the propagation engine precomputes once
   per test instead of once per candidate. *)
let test_static_po_agrees_with_relations () =
  List.iter
    (fun t ->
      let first acc x = if Option.is_none acc then Some x else acc in
      let x =
        match Mcm_litmus.Enumerate.fold t ~init:None ~f:first with
        | Some x -> x
        | None -> Alcotest.failf "%s has no candidates" t.Mcm_litmus.Litmus.name
      in
      let r = Execution.relations x in
      let po, po_loc = Execution.static_po x.Execution.events in
      check (t.Mcm_litmus.Litmus.name ^ ": static po") true (Relation.equal po r.Execution.po);
      check
        (t.Mcm_litmus.Litmus.name ^ ": static po_loc")
        true
        (Relation.equal po_loc r.Execution.po_loc))
    Mcm_litmus.Library.all

let () =
  Alcotest.run "memmodel"
    [
      ( "event",
        [
          Alcotest.test_case "predicates" `Quick test_event_predicates;
          Alcotest.test_case "pretty-printing" `Quick test_event_pp;
        ] );
      ( "relation",
        [
          Alcotest.test_case "basics" `Quick test_relation_basics;
          Alcotest.test_case "add is immutable" `Quick test_relation_add_immutable;
          Alcotest.test_case "union/inter/subset" `Quick test_relation_union_inter;
          Alcotest.test_case "compose" `Quick test_relation_compose;
          Alcotest.test_case "inverse" `Quick test_relation_inverse;
          Alcotest.test_case "transitive closure" `Quick test_relation_closure;
          Alcotest.test_case "acyclicity" `Quick test_relation_acyclicity;
          Alcotest.test_case "find_cycle" `Quick test_relation_find_cycle;
          Alcotest.test_case "total order" `Quick test_relation_total_order;
          Alcotest.test_case "restrict" `Quick test_relation_restrict;
          Alcotest.test_case "bounds" `Quick test_relation_bounds_checked;
        ] );
      ( "execution",
        [
          Alcotest.test_case "well-formed" `Quick test_execution_well_formed;
          Alcotest.test_case "rejects bad rf" `Quick test_execution_rejects_bad_rf;
          Alcotest.test_case "rejects bad co" `Quick test_execution_rejects_bad_co;
          Alcotest.test_case "value_read" `Quick test_value_read;
          Alcotest.test_case "derived relations" `Quick test_derived_relations;
          Alcotest.test_case "sw derivation" `Quick test_sw_derived;
        ] );
      ( "model",
        [
          Alcotest.test_case "MP weak consistency" `Quick test_mp_weak_consistency;
          Alcotest.test_case "MP fence weak consistency" `Quick test_mp_fence_weak_consistency;
          Alcotest.test_case "hb cycle description" `Quick test_hb_cycle_description;
          Alcotest.test_case "RMW atomicity" `Quick test_rmw_atomicity;
          Alcotest.test_case "RMW placement scan agrees" `Quick test_rmw_scan_agrees;
          Alcotest.test_case "model names" `Quick test_model_names_roundtrip;
          Alcotest.test_case "strength chain" `Quick test_model_strength_chain;
        ] );
      ( "cat",
        [
          Alcotest.test_case "matches direct models" `Quick test_cat_matches_direct_models;
          Alcotest.test_case "expression algebra" `Quick test_cat_eval_algebra;
          Alcotest.test_case "TSO allows SB" `Quick test_cat_tso_allows_store_buffering;
          Alcotest.test_case "TSO forbids MP" `Quick test_cat_tso_forbids_mp;
          Alcotest.test_case "failing axiom names" `Quick test_cat_failing_axiom_names;
          Alcotest.test_case "find" `Quick test_cat_find;
          Alcotest.test_case "pretty-printing" `Quick test_cat_pretty_printing;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_closure_idempotent; prop_closure_contains; prop_union_commutative;
            prop_inverse_involutive; prop_compose_associative; prop_acyclic_iff_no_cycle_found;
            prop_acyclic_is_closure_diagonal;
          ] );
      ( "relations-spec",
        [
          Alcotest.test_case "every field matches the specification" `Quick
            test_relations_match_spec;
          Alcotest.test_case "consistency and cycles match the specification" `Quick
            test_model_matches_spec;
        ] );
      ( "incremental-closure",
        Alcotest.test_case "basics" `Quick test_closure_basics
        :: Alcotest.test_case "of_relation" `Quick test_closure_of_relation
        :: Alcotest.test_case "static_po agrees with relations" `Quick
             test_static_po_agrees_with_relations
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_closure_add_tracks_acyclicity; prop_closure_roundtrip ] );
    ]

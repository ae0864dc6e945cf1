(* Tests for the axiomatic oracle (lib/oracle).

   Five layers of assurance:

   1. Engine cross-checks — the streaming enumerator
      (Mcm_litmus.Enumerate) must produce exactly the candidate list of
      the specification below, in order, and agree with it on every
      query; its analytic candidate count must match actual enumeration;
      and the constraint-propagation engine must reproduce the
      brute-force engine's consistent stream in order, execution for
      execution, over the whole corpus and the benchmark ladder.
   2. Golden allowed-outcome counts — for every shipped test (classic
      library + generated suite) and every model, the size of the
      allowed-outcome set is pinned, through BOTH engines. A model or
      engine change that shifts any set shows up as an exact diff.
      Regenerate after an intentional change with:
        MCM_GOLDEN_REGEN=1 dune exec test/test_oracle.exe
   3. Certification — every conformance test is provably disallowed,
      every mutant provably allowed and non-vacuous, with identical
      verdict reports from both engines; the certifier also rejects
      hand-built vacuous/inverted tests, and a deliberately weakened
      model (the po;sw;po / po -> po_loc hb edge dropped) is flagged
      identically by both engines.
   4. Soundness — the simulator's observed outcomes are axiomatically
      allowed on correct devices, and the checker catches an injected
      coherence bug with the same counter-example traces through either
      engine.
   5. qcheck properties — allowed-set monotonicity along the model
      lattice, bit-identity of the pool-sharded grid for any domain
      count, and the engine differential on random wide programs
      (2–3 threads, fences, RMWs): identical ordered streams, allowed
      sets, witnesses and certification verdicts, with Enumerate as the
      reference. *)

module Model = Mcm_memmodel.Model
module Litmus = Mcm_litmus.Litmus
module Instr = Mcm_litmus.Instr
module Library = Mcm_litmus.Library
module Suite = Mcm_core.Suite
module Profile = Mcm_gpu.Profile
module Device = Mcm_gpu.Device
module Bug = Mcm_gpu.Bug
module Params = Mcm_testenv.Params
module Enumerate = Mcm_litmus.Enumerate
module Scope = Mcm_memmodel.Scope
module Execution = Mcm_memmodel.Execution
module Event = Mcm_memmodel.Event
module Propagate = Mcm_oracle.Propagate
module Engine = Mcm_oracle.Engine
module Outcome = Mcm_oracle.Outcome
module Certify = Mcm_oracle.Certify
module Soundness = Mcm_oracle.Soundness

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let all_tests () =
  Library.all @ List.map (fun (e : Suite.entry) -> e.Suite.test) (Suite.all ())

(* One shard of the scoped 2x5x2 corpus (device- and workgroup-scope
   fences): ~50 generated tests whose shapes the library lacks. *)
let shard_tests =
  lazy
    (match Mcm_corpus.Shape.of_spec ~fence:true ~wg_fence:true "2x5x2" with
    | Error e -> invalid_arg e
    | Ok shape ->
        let meta =
          { Mcm_corpus.Corpus.default_meta with Mcm_corpus.Corpus.shape; shard = Some (0, 48) }
        in
        List.map
          (fun (e : Mcm_corpus.Admit.entry) -> e.Mcm_corpus.Admit.test)
          (Mcm_corpus.Corpus.generate meta).Mcm_corpus.Corpus.entries)

let layouts = [ Scope.Inter; Scope.Intra ]

(* The closure-free identity of a candidate: its rf assignment and
   coherence order. *)
let exec_key (x : Execution.t) = (Array.to_list x.Execution.rf, x.Execution.co)

(* -------------------------------------------------------------------- *)
(* The specification: the candidate space built as a list straight from
   its definition (Sec. 2.2) — every rf assignment, each crossed with
   the product of every location's coherence permutations — and the
   queries as list operations over it. Enumerate.fold must produce
   exactly this list, in this order. *)

module Spec = struct
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            let rest = List.filter (fun y -> y <> x) l in
            List.map (fun p -> x :: p) (permutations rest))
          l

  let candidates ?layout t =
    let events = (Litmus.compile ?layout t).Litmus.events in
    let n = Array.length events in
    let reads = ref [] in
    let writes_by_loc = Hashtbl.create 4 in
    Array.iter
      (fun e ->
        if Event.is_read e then reads := e.Event.id :: !reads;
        if Event.is_write e then
          match Event.loc e with
          | Some l ->
              let cur = try Hashtbl.find writes_by_loc l with Not_found -> [] in
              Hashtbl.replace writes_by_loc l (cur @ [ e.Event.id ])
          | None -> ())
      events;
    (* rf choices per read: initial state or any same-location write
       other than the read itself (an RMW cannot read its own write). *)
    let rf_choices r =
      match Event.loc events.(r) with
      | None -> [ None ]
      | Some l ->
          let ws = try Hashtbl.find writes_by_loc l with Not_found -> [] in
          None :: List.filter_map (fun w -> if w = r then None else Some (Some w)) ws
    in
    let rec assign_rf acc = function
      | [] -> [ List.rev acc ]
      | r :: rest -> List.concat_map (fun c -> assign_rf ((r, c) :: acc) rest) (rf_choices r)
    in
    let co_orders =
      let per_loc = Hashtbl.fold (fun l ws acc -> (l, permutations ws) :: acc) writes_by_loc [] in
      let rec product = function
        | [] -> [ [] ]
        | (l, orders) :: rest ->
            let tails = product rest in
            List.concat_map (fun o -> List.map (fun tl -> (l, o) :: tl) tails) orders
      in
      product (List.sort compare per_loc)
    in
    List.concat_map
      (fun rf_pairs ->
        let rf = Array.make n None in
        List.iter (fun (r, c) -> rf.(r) <- c) rf_pairs;
        List.map (fun co -> { Execution.events; rf; co }) co_orders)
      (assign_rf [] (List.rev !reads))

  let outcome t x = Litmus.outcome_of_execution t x

  let consistent_outcomes ?layout m t =
    List.filter_map
      (fun x -> if Model.consistent m x then Some (outcome t x) else None)
      (candidates ?layout t)
    |> List.sort_uniq compare

  let witness ?layout m t =
    List.find_opt
      (fun x -> Model.consistent m x && t.Litmus.target (outcome t x))
      (candidates ?layout t)

  let target_allowed ?layout m t = witness ?layout m t <> None

  (* Why no candidate producing an outcome satisfying [p] is consistent:
     among the producing candidates (first-to-last, or last-to-first),
     prefer those whose RMWs are placed and report the first hb cycle,
     else the first atomicity violation. *)
  let explain ?layout ~last m t p =
    let producing = List.filter (fun x -> p (outcome t x)) (candidates ?layout t) in
    let producing = if last then List.rev producing else producing in
    if producing = [] then Enumerate.Unexhibited
    else
      let placed = List.filter Model.rmw_atomic producing in
      let pool = if placed <> [] then placed else producing in
      match List.filter_map (Model.hb_cycle m) pool with
      | c :: _ -> Enumerate.Cycle c
      | [] -> (
          match List.filter_map Model.atomicity_violation producing with
          | v :: _ -> Enumerate.Atomicity v
          | [] -> Enumerate.Unexplained)

  let forbidden_cycle ?layout t =
    if target_allowed ?layout t.Litmus.model t then None
    else
      match explain ?layout ~last:false t.Litmus.model t t.Litmus.target with
      | Enumerate.Cycle c -> Some c
      | _ -> None
end

(* -------------------------------------------------------------------- *)
(* 1. Engine cross-checks.                                               *)

let test_count_agrees_with_enumeration () =
  List.iter
    (fun t ->
      let folded = Enumerate.fold t ~init:0 ~f:(fun k _ -> k + 1) in
      check_int (t.Litmus.name ^ ": analytic count = fold count") (Enumerate.count t) folded)
    (all_tests ())

(* A test with [n] stores to one location, no reads: n! candidates. *)
let stores_to_one_location n =
  {
    Litmus.name = Printf.sprintf "W%d" n;
    family = "sizing";
    model = Model.Sc_per_location;
    threads = [| List.init n (fun i -> Instr.store ~loc:0 ~value:(i + 1) ()) |];
    nlocs = 1;
    target = (fun _ -> false);
    target_desc = "none";
  }

let test_count_saturates () =
  check_int "20 writes: 20!" 2_432_902_008_176_640_000
    (Enumerate.count (stores_to_one_location 20));
  check_int "21 writes: saturated" max_int (Enumerate.count (stores_to_one_location 21));
  check_int "24 writes: saturated" max_int (Enumerate.count (stores_to_one_location 24))

(* The fold yields the specification's candidate list itself — same
   executions, same order — over the library, the suite and a corpus
   shard, under both layouts. *)
let test_fold_agrees_with_list_enumerator () =
  List.iter
    (fun layout ->
      List.iter
        (fun t ->
          let what = Printf.sprintf "%s (%s)" t.Litmus.name (Scope.layout_name layout) in
          let spec = Spec.candidates ~layout t in
          check_int (what ^ ": same candidate-space size") (List.length spec)
            (Enumerate.count ~layout t);
          let folded = Enumerate.fold ~layout t ~init:[] ~f:(fun acc x -> x :: acc) |> List.rev in
          check (what ^ ": same candidates in the same order") true
            (List.map exec_key folded = List.map exec_key spec))
        (all_tests () @ Lazy.force shard_tests))
    layouts

let test_allowed_agrees_with_list_enumerator () =
  List.iter
    (fun t ->
      List.iter
        (fun m ->
          let theirs = Spec.consistent_outcomes m t in
          check
            (Printf.sprintf "%s under %s: same allowed set" t.Litmus.name (Model.name m))
            true
            (Outcome.elements (Outcome.allowed m t) = theirs
            && Enumerate.consistent_outcomes m t = theirs))
        Model.all)
    Library.all

let test_target_allowed_agrees () =
  List.iter
    (fun t ->
      List.iter
        (fun m ->
          let what = Printf.sprintf "%s under %s" t.Litmus.name (Model.name m) in
          check (what ^ ": target_allowed agrees") (Spec.target_allowed m t)
            (Outcome.target_allowed m t);
          check (what ^ ": same witness") true
            (Option.map exec_key (Spec.witness m t)
            = Option.map exec_key (Enumerate.witness m t)))
        Model.all)
    Library.all

(* The one explainer picks the candidate each caller always picked:
   forbidden_cycle the first, Certify and counterexample the last. *)
let test_explain_agrees_with_spec () =
  List.iter
    (fun layout ->
      List.iter
        (fun t ->
          let what = Printf.sprintf "%s (%s)" t.Litmus.name (Scope.layout_name layout) in
          let m = t.Litmus.model and p = t.Litmus.target in
          List.iter
            (fun last ->
              check
                (Printf.sprintf "%s: explain ~last:%b" what last)
                true
                (Enumerate.explain ~layout ~last m t p = Spec.explain ~layout ~last m t p))
            [ false; true ];
          check (what ^ ": forbidden_cycle") true
            (Enumerate.forbidden_cycle ~layout t = Spec.forbidden_cycle ~layout t))
        (all_tests () @ Lazy.force shard_tests))
    layouts

(* -------------------------------------------------------------------- *)
(* 1b. Engine differential: the constraint-propagation engine must agree
      with the brute-force enumerator not just on sets but on the exact
      ordered stream of consistent executions — the contract that makes
      witnesses, fold orders and certification verdicts
      engine-independent. *)

let stream engine m t =
  Engine.fold_consistent engine m t ~init:[] ~f:(fun acc x -> exec_key x :: acc) |> List.rev

let test_corpus_streams_identical () =
  List.iter
    (fun t ->
      List.iter
        (fun m ->
          check
            (Printf.sprintf "%s under %s: identical ordered consistent streams" t.Litmus.name
               (Model.name m))
            true
            (stream Engine.Propagate m t = stream Engine.Enumerate m t))
        Model.all)
    (all_tests ())

let test_propagate_stats_consistent_matches () =
  List.iter
    (fun t ->
      List.iter
        (fun m ->
          let st = Propagate.stats m t in
          check_int
            (Printf.sprintf "%s under %s: stats.consistent = enumerate count" t.Litmus.name
               (Model.name m))
            (Enumerate.count_consistent m t) st.Propagate.consistent;
          check
            (Printf.sprintf "%s under %s: explored bounded by candidate work" t.Litmus.name
               (Model.name m))
            true
            (st.Propagate.consistent <= st.Propagate.explored))
        Model.all)
    Library.all

(* -------------------------------------------------------------------- *)
(* 2. Golden allowed-outcome counts: name, |allowed| under SC,
      rel-acq-SC-per-loc, SC-per-loc (the Model.all order). Pinned
      through BOTH engines — a pruning bug that shifts any set shows up
      as an exact diff against the same table. *)

type row = string * int * int * int

let rows ?engine () : row list =
  List.map
    (fun t ->
      match List.map (fun m -> Outcome.size (Outcome.allowed ?engine m t)) Model.all with
      | [ sc; relacq; scpl ] -> (t.Litmus.name, sc, relacq, scpl)
      | _ -> assert false)
    (all_tests ())

let expected : row list =
  [
    ("CoRR", 3, 3, 3);
    ("CoWR", 3, 3, 3);
    ("CoRW", 3, 3, 3);
    ("CoWW", 21, 21, 21);
    ("MP", 3, 4, 4);
    ("MP-relacq", 3, 3, 4);
    ("MP-CO", 6, 6, 6);
    ("LB", 3, 4, 4);
    ("LB-relacq", 3, 3, 4);
    ("SB", 3, 4, 4);
    ("SB-relacq-rmw", 3, 3, 4);
    ("S", 3, 4, 4);
    ("S-relacq", 3, 3, 4);
    ("R", 3, 4, 4);
    ("R-relacq-rmw", 3, 3, 4);
    ("2+2W", 3, 4, 4);
    ("2+2W-relacq-rmw", 3, 3, 4);
    ("IRIW", 15, 16, 16);
    ("WRC", 7, 8, 8);
    ("ISA2", 7, 8, 8);
    ("RWC", 7, 8, 8);
    ("CoRR", 3, 3, 3);
    ("CoRR-m", 3, 3, 3);
    ("CoRR-rmw", 3, 3, 3);
    ("CoRR-rmw-m", 3, 3, 3);
    ("CoWR", 3, 3, 3);
    ("CoWR-m", 3, 3, 3);
    ("CoWR-rmw", 3, 3, 3);
    ("CoWR-rmw-m", 3, 3, 3);
    ("CoRW", 3, 3, 3);
    ("CoRW-m", 3, 3, 3);
    ("CoRW-rmw", 3, 3, 3);
    ("CoRW-rmw-m", 3, 3, 3);
    ("CoWW", 21, 21, 21);
    ("CoWW-m", 21, 21, 21);
    ("CoWW-rmw", 3, 3, 3);
    ("CoWW-rmw-m", 3, 3, 3);
    ("MP-CO", 6, 6, 6);
    ("MP-CO-m", 3, 4, 4);
    ("LB-CO", 4, 4, 4);
    ("LB-CO-m", 3, 4, 4);
    ("S-CO", 5, 5, 5);
    ("S-CO-m", 3, 4, 4);
    ("SB-CO", 4, 4, 4);
    ("SB-CO-m", 3, 4, 4);
    ("R-CO", 4, 4, 4);
    ("R-CO-m", 3, 4, 4);
    ("2+2W-CO", 34, 34, 34);
    ("2+2W-CO-m", 3, 4, 4);
    ("MP-relacq", 3, 3, 4);
    ("MP-relacq-m1", 3, 4, 4);
    ("MP-relacq-m2", 3, 4, 4);
    ("MP-relacq-m3", 3, 4, 4);
    ("LB-relacq", 3, 3, 4);
    ("LB-relacq-m1", 3, 4, 4);
    ("LB-relacq-m2", 3, 4, 4);
    ("LB-relacq-m3", 3, 4, 4);
    ("S-relacq", 3, 3, 4);
    ("S-relacq-m1", 3, 4, 4);
    ("S-relacq-m2", 3, 4, 4);
    ("S-relacq-m3", 3, 4, 4);
    ("SB-relacq", 3, 3, 4);
    ("SB-relacq-m1", 3, 4, 4);
    ("SB-relacq-m2", 3, 4, 4);
    ("SB-relacq-m3", 3, 4, 4);
    ("R-relacq", 3, 3, 4);
    ("R-relacq-m1", 3, 4, 4);
    ("R-relacq-m2", 3, 4, 4);
    ("R-relacq-m3", 3, 4, 4);
    ("2+2W-relacq", 3, 3, 4);
    ("2+2W-relacq-m1", 3, 4, 4);
    ("2+2W-relacq-m2", 3, 4, 4);
    ("2+2W-relacq-m3", 3, 4, 4);
  ]

let pp_row (name, sc, relacq, scpl) = Printf.sprintf "(%S, %d, %d, %d);" name sc relacq scpl

let golden_counts engine () =
  let actual = rows ~engine () in
  check_int "row count" (List.length expected) (List.length actual);
  List.iter2
    (fun a e ->
      if a <> e then
        Alcotest.failf "allowed-set drift (%s engine):\n  expected %s\n  actual   %s"
          (Engine.name engine) (pp_row e) (pp_row a))
    actual expected

let test_golden_counts_enumerate () = golden_counts Engine.Enumerate ()
let test_golden_counts_propagate () = golden_counts Engine.Propagate ()

let test_monotone_along_lattice () =
  (* Permissiveness chain: allowed(SC) ⊆ allowed(rel-acq) ⊆ allowed(SC-per-loc),
     pointwise on every shipped test — the outcome-set image of
     Model.weaker_or_equal. *)
  List.iter
    (fun t ->
      let sets = List.map (fun m -> (m, Outcome.allowed m t)) Model.all in
      List.iter
        (fun (m, s) ->
          List.iter
            (fun (m', s') ->
              if Model.weaker_or_equal m m' then
                check
                  (Printf.sprintf "%s: allowed(%s) includes allowed(%s)" t.Litmus.name
                     (Model.name m) (Model.name m'))
                  true (Outcome.subset s' s))
            sets)
        sets)
    (all_tests ())

(* -------------------------------------------------------------------- *)
(* 3. Certification.                                                     *)

let test_certify_suite () =
  let r = Certify.suite () in
  check_int "suite size" (List.length (Suite.all ())) (List.length r.Certify.verdicts);
  List.iter
    (fun (v : Certify.verdict) ->
      if not v.Certify.ok then
        Alcotest.failf "suite certificate failed: %s (%s): %s" v.Certify.test v.Certify.role
          v.Certify.detail)
    r.Certify.verdicts;
  check_int "no failures" 0 r.Certify.failures

let test_certify_library () =
  let r = Certify.library () in
  check_int "library size" (List.length Library.all) (List.length r.Certify.verdicts);
  check_int "no failures" 0 r.Certify.failures

(* The golden certification counts (52/52 suite + 21/21 library) through
   both engines, and verdict-for-verdict equality between them — the
   evidence strings embed witness outcomes, so equality here also pins
   the engines to the same witnesses. *)
let test_certify_reports_engine_independent () =
  let se = Certify.suite ~engine:Engine.Enumerate () in
  let sp = Certify.suite ~engine:Engine.Propagate () in
  check_int "suite 52/52 via enumerate" 0 se.Certify.failures;
  check_int "suite 52/52 via propagate" 0 sp.Certify.failures;
  check "identical suite reports" true (se = sp);
  let le = Certify.library ~engine:Engine.Enumerate () in
  let lp = Certify.library ~engine:Engine.Propagate () in
  check_int "library 21/21 via enumerate" 0 le.Certify.failures;
  check_int "library 21/21 via propagate" 0 lp.Certify.failures;
  check "identical library reports" true (le = lp)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_certify_rejects_allowed_conformance () =
  (* MP's weak target is allowed under SC-per-loc: as a conformance test
     it must fail certification, with the witness in the verdict. *)
  let v = Certify.conformance Library.mp in
  check "not ok" false v.Certify.ok;
  check "mentions ALLOWED" true (contains v.Certify.detail "ALLOWED")

let test_certify_rejects_vacuous_mutant () =
  (* A "mutant" whose target a serial execution exhibits is vacuous. *)
  let vacuous =
    {
      Library.mp with
      Litmus.name = "MP-vacuous";
      target = (fun o -> o.Litmus.regs.(1).(0) = 1 && o.Litmus.regs.(1).(1) = 1);
      target_desc = "t1.r0 = 1 && t1.r1 = 1";
    }
  in
  let v = Certify.mutant vacuous in
  check "not ok" false v.Certify.ok;
  check "flagged vacuous" true (contains v.Certify.detail "vacuous")

let test_certify_rejects_disallowed_mutant () =
  (* CoRR's target is disallowed: as a mutant it must fail. *)
  let v = Certify.mutant Library.corr in
  check "not ok" false v.Certify.ok;
  check "mentions DISALLOWED" true (contains v.Certify.detail "DISALLOWED")

let test_conformance_evidence_is_a_cycle () =
  let v = Certify.conformance Library.corr in
  check "ok" true v.Certify.ok;
  check "cycle evidence" true (contains v.Certify.detail "hb cycle");
  (* Certification reports the last exhibiting candidate's cycle, which
     differs here from the first one `mcmutants show` prints. *)
  List.iter
    (fun (name, detail) ->
      let v = Certify.conformance (Option.get (Suite.find name)).Suite.test in
      Alcotest.(check string) (name ^ " evidence") detail v.Certify.detail)
    [
      ("CoRR-rmw", "forbidden hb cycle: a -> b -> c -> a");
      ("2+2W-CO", "forbidden hb cycle: a -> b -> a");
    ]

(* ------------------------------------------------------------------ *)
(* 3b. Negative differential: weaken the model under a known-disallowed
      test and both engines must flag the SAME certification failures —
      the propagation engine must not "rescue" a broken rule by pruning
      differently than brute force filters. *)

let test_weakened_model_same_failure_both_engines () =
  (* MP-relacq's target is disallowed only because rel-acq adds the
     po;sw;po edge; re-pinning the test to plain SC-per-location drops
     that hb edge, so the conformance certificate must fail (target
     becomes allowed) — identically through both engines, including the
     witness embedded in the verdict. *)
  let weakened =
    { Library.mp_relacq with Litmus.name = "MP-relacq-weakened"; model = Model.Sc_per_location }
  in
  let ve = Certify.conformance ~engine:Engine.Enumerate weakened in
  let vp = Certify.conformance ~engine:Engine.Propagate weakened in
  check "enumerate flags the failure" false ve.Certify.ok;
  check "propagate flags the failure" false vp.Certify.ok;
  check "mentions ALLOWED" true (contains vp.Certify.detail "ALLOWED");
  check "identical verdicts" true (ve = vp);
  (* The same drop seen from the coherence side: SC forbids SB's target
     through full po; relaxing to SC-per-location keeps only same-
     location program order, and the target becomes allowed. *)
  let sb_sc = { Library.sb with Litmus.name = "SB-as-SC"; model = Model.Sc } in
  let sb_weak = { Library.sb with Litmus.name = "SB-weakened" } in
  check "SB disallowed under SC (enumerate)" true
    (Certify.conformance ~engine:Engine.Enumerate sb_sc).Certify.ok;
  check "SB disallowed under SC (propagate)" true
    (Certify.conformance ~engine:Engine.Propagate sb_sc).Certify.ok;
  let we = Certify.conformance ~engine:Engine.Enumerate sb_weak in
  let wp = Certify.conformance ~engine:Engine.Propagate sb_weak in
  check "weakened SB fails both engines" true ((not we.Certify.ok) && not wp.Certify.ok);
  check "identical weakened-SB verdicts" true (we = wp)

let test_vacuity_rejection_same_both_engines () =
  let vacuous =
    {
      Library.mp with
      Litmus.name = "MP-vacuous";
      target = (fun o -> o.Litmus.regs.(1).(0) = 1 && o.Litmus.regs.(1).(1) = 1);
      target_desc = "t1.r0 = 1 && t1.r1 = 1";
    }
  in
  let ve = Certify.mutant ~engine:Engine.Enumerate vacuous in
  let vp = Certify.mutant ~engine:Engine.Propagate vacuous in
  check "both reject" true ((not ve.Certify.ok) && not vp.Certify.ok);
  check "both flag vacuous" true
    (contains ve.Certify.detail "vacuous" && contains vp.Certify.detail "vacuous");
  check "identical verdicts" true (ve = vp)

(* ------------------------------------------------------------------ *)
(* 3c. The ladder: the bench's scalable rungs stay honest in the test
      suite — well-formed, certifiable, and counted identically by both
      engines on the rungs cheap enough for CI. *)

let test_ladder_well_formed_and_certifiable () =
  List.iter
    (fun (stores, loads) ->
      let t = Library.ladder ~stores ~loads in
      check (t.Litmus.name ^ " well-formed") true (Litmus.well_formed t = Ok ());
      check (t.Litmus.name ^ " not in Library.all") true (Library.expectation t = None))
    [ (1, 1); (1, 2); (2, 1); (2, 2) ];
  (* stores >= 2 makes the target non-vacuous (a serial thread's
     non-final store is shadowed), so the rung certifies as a mutant. *)
  let v = Certify.mutant ~engine:Engine.Propagate (Library.ladder ~stores:2 ~loads:1) in
  check "s2-l1 certifies as allowed + non-vacuous" true v.Certify.ok

let test_ladder_small_rung_streams_identical () =
  let t = Library.ladder ~stores:1 ~loads:2 in
  check "s1-l2: identical ordered streams" true
    (stream Engine.Propagate t.Litmus.model t = stream Engine.Enumerate t.Litmus.model t)

let test_ladder_medium_rung_counts_agree () =
  let t = Library.ladder ~stores:2 ~loads:1 in
  check_int "s2-l1: identical consistent counts"
    (Engine.count_consistent Engine.Enumerate t.Litmus.model t)
    (Engine.count_consistent Engine.Propagate t.Litmus.model t)

(* -------------------------------------------------------------------- *)
(* 4. Soundness.                                                         *)

let small_tests () =
  List.map
    (fun n -> (Option.get (Suite.find n)).Suite.test)
    [ "CoRR"; "CoRR-m"; "MP-CO-m"; "MP-relacq-m3" ]

let small_env = [ ("pte@0.02", Params.scaled Params.pte_baseline 0.02) ]

let test_soundness_correct_devices () =
  let r =
    Soundness.check ~iterations:2 ~devices:(Device.all_correct ()) ~envs:small_env
      ~tests:(small_tests ()) ()
  in
  check_int "grid points" (4 * 4) (List.length r.Soundness.points);
  List.iter
    (fun (p : Soundness.point) ->
      List.iter
        (fun (v : Soundness.violation) ->
          Alcotest.failf "unsound: %s on %s: %s — %s" v.Soundness.v_test v.Soundness.v_device
            (Litmus.outcome_to_string v.Soundness.v_outcome)
            v.Soundness.v_explanation)
        p.Soundness.p_violations)
    r.Soundness.points;
  check "ok" true (Soundness.ok r)

let test_soundness_catches_injected_bug () =
  (* The Kepler-style coherence bug makes the simulator produce CoRR
     violations; the checker must catch them and explain each with a
     counter-example trace. *)
  let buggy = Device.make ~bugs:[ Bug.Corr_reorder 0.5 ] Profile.intel in
  let corr = (Option.get (Suite.find "CoRR")).Suite.test in
  let r =
    Soundness.check ~iterations:2 ~devices:[ buggy ] ~envs:small_env ~tests:[ corr ] ()
  in
  check "violations found" true (r.Soundness.total_violations > 0);
  check "not ok" false (Soundness.ok r);
  let v =
    List.concat_map (fun (p : Soundness.point) -> p.Soundness.p_violations) r.Soundness.points
    |> List.hd
  in
  check "explained by a forbidden cycle" true (contains v.Soundness.v_explanation "cycle")

let test_soundness_injected_bug_same_both_engines () =
  (* The injected-bug failure path, differentially: the violation set and
     every counter-example explanation must be identical whichever
     engine computed the allowed sets. *)
  let buggy = Device.make ~bugs:[ Bug.Corr_reorder 0.5 ] Profile.intel in
  let corr = (Option.get (Suite.find "CoRR")).Suite.test in
  let run engine =
    Soundness.check ~engine ~iterations:2 ~devices:[ buggy ] ~envs:small_env ~tests:[ corr ] ()
  in
  let re = run Engine.Enumerate and rp = run Engine.Propagate in
  check "enumerate finds violations" true (re.Soundness.total_violations > 0);
  check "propagate finds violations" true (rp.Soundness.total_violations > 0);
  check "identical reports" true (re = rp)

let test_soundness_jobs_invariant () =
  let run domains =
    Soundness.check
      ~ctx:(Mcm_testenv.Request.context ~domains ())
      ~iterations:1 ~devices:[ Device.make Profile.intel ] ~envs:small_env
      ~tests:(small_tests ()) ()
  in
  let serial = run 1 in
  List.iter
    (fun d -> check (Printf.sprintf "report identical at %d domains" d) true (run d = serial))
    [ 2; 3; 8 ]

(* -------------------------------------------------------------------- *)
(* qcheck: random programs.                                              *)

(* Random well-formed litmus programs: two threads of 1–2 instructions
   over ≤ 2 locations, values distinct and non-zero per location (the
   well-formedness concretisation), registers distinct per thread. Small
   enough that the candidate space stays ≤ a few thousand. *)
let gen_program st =
  let open QCheck.Gen in
  let nlocs = 1 + int_bound 1 st in
  let next_value = Array.make nlocs 0 in
  let fresh_value l =
    next_value.(l) <- next_value.(l) + 1;
    next_value.(l)
  in
  let thread _ =
    let n = 1 + int_bound 1 st in
    let reg = ref 0 in
    List.init n (fun _ ->
        match int_bound 3 st with
        | 0 ->
            let r = !reg in
            incr reg;
            Instr.load ~reg:r ~loc:(int_bound (nlocs - 1) st) ()
        | 1 ->
            let l = int_bound (nlocs - 1) st in
            Instr.store ~loc:l ~value:(fresh_value l) ()
        | 2 ->
            let r = !reg in
            incr reg;
            let l = int_bound (nlocs - 1) st in
            Instr.rmw ~reg:r ~loc:l ~value:(fresh_value l) ()
        | _ -> Instr.fence ())
  in
  let threads = Array.init 2 thread in
  {
    Litmus.name = "rand";
    family = "qcheck";
    model = Model.Sc_per_location;
    threads;
    nlocs;
    target = (fun _ -> false);
    target_desc = "none";
  }

let program_arb =
  QCheck.make ~print:(fun t -> Litmus.to_string t) gen_program

let prop_random_programs_well_formed =
  QCheck.Test.make ~count:200 ~name:"random programs are well-formed" program_arb (fun t ->
      Litmus.well_formed t = Ok ())

let prop_monotone_random =
  QCheck.Test.make ~count:120
    ~name:"allowed sets monotone along weaker_or_equal (random programs)" program_arb (fun t ->
      let sets = List.map (fun m -> (m, Outcome.allowed m t)) Model.all in
      List.for_all
        (fun (m, s) ->
          List.for_all
            (fun (m', s') -> (not (Model.weaker_or_equal m m')) || Outcome.subset s' s)
            sets)
        sets)

let prop_grid_jobs_identical =
  QCheck.Test.make ~count:30 ~name:"allowed_grid bit-identical for domains 1..8"
    QCheck.(pair (make (QCheck.Gen.int_range 1 8)) program_arb)
    (fun (domains, t) ->
      let points = List.map (fun m -> (m, t)) Model.all in
      let serial = Outcome.allowed_grid points in
      let sharded = Outcome.allowed_grid ~domains points in
      List.for_all2 Outcome.equal serial sharded)

(* The same over the classic library, 21 tests x 3 models, where
   neighbouring points have different allowed sets, so a result landing
   at the wrong index shows. *)
let test_library_grid_jobs_identical () =
  let points = List.concat_map (fun t -> List.map (fun m -> (m, t)) Model.all) Library.all in
  let serial = Outcome.allowed_grid points in
  List.iter
    (fun domains ->
      check
        (Printf.sprintf "library grid identical at %d domains" domains)
        true
        (List.for_all2 Outcome.equal serial (Outcome.allowed_grid ~domains points)))
    [ 2; 4 ]

let prop_consistent_count_bounded =
  QCheck.Test.make ~count:120 ~name:"consistent candidates never exceed the analytic total"
    program_arb (fun t ->
      let total = Enumerate.count t in
      List.for_all
        (fun m ->
          let c = Enumerate.count_consistent m t in
          c >= 0 && c <= total)
        Model.all)

(* ------------------------------------------------------------------ *)
(* qcheck: engine differential on random programs.

   A wider generator than [gen_program]: 2–3 threads of 1–3
   instructions. Two-instruction threads can never form the po;sw;po
   shape (a fence needs a neighbour on each side), so the differential
   properties need three-instruction threads to exercise the propagation
   engine's release/acquire edges at all. Budgets keep the candidate
   space enumerable: at most 3 stores per location, at most 4 reads in
   the whole program, at most 2 locations. *)
let gen_program_wide st =
  let open QCheck.Gen in
  let nthreads = 2 + int_bound 1 st in
  let nlocs = 1 + int_bound 1 st in
  let next_value = Array.make nlocs 0 in
  let stores_left = Array.make nlocs 3 in
  let reads_left = ref 4 in
  let fresh_value l =
    next_value.(l) <- next_value.(l) + 1;
    next_value.(l)
  in
  let thread _ =
    let n = 1 + int_bound 2 st in
    let reg = ref 0 in
    List.init n (fun _ ->
        let loc = int_bound (nlocs - 1) st in
        match int_bound 3 st with
        | 0 when !reads_left > 0 ->
            decr reads_left;
            let r = !reg in
            incr reg;
            Instr.load ~reg:r ~loc ()
        | 1 when stores_left.(loc) > 0 ->
            stores_left.(loc) <- stores_left.(loc) - 1;
            Instr.store ~loc ~value:(fresh_value loc) ()
        | 2 when !reads_left > 0 && stores_left.(loc) > 0 ->
            decr reads_left;
            stores_left.(loc) <- stores_left.(loc) - 1;
            let r = !reg in
            incr reg;
            Instr.rmw ~reg:r ~loc ~value:(fresh_value loc) ()
        | _ -> Instr.fence ())
  in
  let threads = Array.init nthreads thread in
  {
    Litmus.name = "rand-wide";
    family = "qcheck";
    model = Model.Sc_per_location;
    threads;
    nlocs;
    target = (fun _ -> false);
    target_desc = "none";
  }

let program_wide_arb = QCheck.make ~print:(fun t -> Litmus.to_string t) gen_program_wide

(* The strongest differential claim, from which set/witness/verdict
   agreement all follow: both engines produce the SAME consistent
   executions in the SAME order, under every model. *)
let prop_streams_identical =
  QCheck.Test.make ~count:80
    ~name:"propagate stream = enumerate stream (ordered, every model)" program_wide_arb (fun t ->
      List.for_all (fun m -> stream Engine.Propagate m t = stream Engine.Enumerate m t) Model.all)

let prop_allowed_sets_identical =
  QCheck.Test.make ~count:80 ~name:"allowed sets identical through both engines"
    program_wide_arb (fun t ->
      List.for_all
        (fun m ->
          Outcome.equal
            (Outcome.allowed ~engine:Engine.Propagate m t)
            (Outcome.allowed ~engine:Engine.Enumerate m t))
        Model.all)

(* Random targets: point the test at the outcome of one of its own
   candidate executions (index chosen by qcheck), so roughly half the
   targets are allowed and the rest exercise the no-witness path. *)
let with_random_target (t, idx) =
  let outcomes = Enumerate.outcomes t in
  match outcomes with
  | [] -> None
  | _ ->
      let o = List.nth outcomes (idx mod List.length outcomes) in
      Some { t with Litmus.target = (fun o' -> o' = o); target_desc = "random candidate outcome" }

let prop_witnesses_identical =
  QCheck.Test.make ~count:60 ~name:"witness identical through both engines (random targets)"
    QCheck.(pair program_wide_arb (make (QCheck.Gen.int_bound 1000)))
    (fun (t, idx) ->
      match with_random_target (t, idx) with
      | None -> QCheck.assume_fail ()
      | Some t ->
          List.for_all
            (fun m ->
              Option.map exec_key (Outcome.witness ~engine:Engine.Propagate m t)
              = Option.map exec_key (Outcome.witness ~engine:Engine.Enumerate m t))
            Model.all)

let prop_certification_verdicts_identical =
  QCheck.Test.make ~count:40
    ~name:"certification verdicts identical through both engines (random targets)"
    QCheck.(pair program_wide_arb (make (QCheck.Gen.int_bound 1000)))
    (fun (t, idx) ->
      match with_random_target (t, idx) with
      | None -> QCheck.assume_fail ()
      | Some t ->
          Certify.mutant ~engine:Engine.Propagate t = Certify.mutant ~engine:Engine.Enumerate t
          && Certify.conformance ~engine:Engine.Propagate t
             = Certify.conformance ~engine:Engine.Enumerate t)

let () =
  if Sys.getenv_opt "MCM_GOLDEN_REGEN" <> None then begin
    List.iter (fun r -> Printf.printf "    %s\n" (pp_row r)) (rows ());
    exit 0
  end;
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "oracle"
    [
      ( "engine",
        [
          Alcotest.test_case "analytic count = fold count" `Quick test_count_agrees_with_enumeration;
          Alcotest.test_case "count saturates at max_int" `Quick test_count_saturates;
          Alcotest.test_case "fold = list enumerator (candidates)" `Slow
            test_fold_agrees_with_list_enumerator;
          Alcotest.test_case "allowed = list enumerator (outcomes)" `Slow
            test_allowed_agrees_with_list_enumerator;
          Alcotest.test_case "target_allowed agrees" `Slow test_target_allowed_agrees;
          Alcotest.test_case "explain = list spec (first and last)" `Slow
            test_explain_agrees_with_spec;
        ] );
      ( "engine-differential",
        [
          Alcotest.test_case "corpus streams identical (73 tests x 3 models)" `Slow
            test_corpus_streams_identical;
          Alcotest.test_case "propagate stats agree with enumerate counts" `Quick
            test_propagate_stats_consistent_matches;
          Alcotest.test_case "ladder s1-l2 streams identical" `Quick
            test_ladder_small_rung_streams_identical;
          Alcotest.test_case "ladder s2-l1 counts agree" `Slow test_ladder_medium_rung_counts_agree;
          Alcotest.test_case "ladder rungs well-formed and certifiable" `Quick
            test_ladder_well_formed_and_certifiable;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "allowed-outcome counts (enumerate)" `Quick
            test_golden_counts_enumerate;
          Alcotest.test_case "allowed-outcome counts (propagate)" `Quick
            test_golden_counts_propagate;
          Alcotest.test_case "monotone along the lattice" `Slow test_monotone_along_lattice;
        ] );
      ( "certify",
        [
          Alcotest.test_case "whole generated suite" `Quick test_certify_suite;
          Alcotest.test_case "whole classic library" `Quick test_certify_library;
          Alcotest.test_case "reports engine-independent (52/52 + 21/21 both ways)" `Slow
            test_certify_reports_engine_independent;
          Alcotest.test_case "rejects allowed conformance" `Quick
            test_certify_rejects_allowed_conformance;
          Alcotest.test_case "rejects vacuous mutant" `Quick test_certify_rejects_vacuous_mutant;
          Alcotest.test_case "rejects disallowed mutant" `Quick
            test_certify_rejects_disallowed_mutant;
          Alcotest.test_case "conformance evidence is a cycle" `Quick
            test_conformance_evidence_is_a_cycle;
          Alcotest.test_case "weakened model flagged identically by both engines" `Quick
            test_weakened_model_same_failure_both_engines;
          Alcotest.test_case "vacuity rejected identically by both engines" `Quick
            test_vacuity_rejection_same_both_engines;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "correct devices are sound" `Quick test_soundness_correct_devices;
          Alcotest.test_case "injected bug is caught" `Quick test_soundness_catches_injected_bug;
          Alcotest.test_case "injected bug reported identically by both engines" `Quick
            test_soundness_injected_bug_same_both_engines;
          Alcotest.test_case "jobs-invariant report" `Quick test_soundness_jobs_invariant;
        ] );
      ( "properties",
        qcheck
          [
            prop_random_programs_well_formed;
            prop_monotone_random;
            prop_grid_jobs_identical;
            prop_consistent_count_bounded;
          ]
        @ [
            Alcotest.test_case "allowed_grid over the library at 2 and 4 domains" `Quick
              test_library_grid_jobs_identical;
          ] );
      ( "properties-differential",
        qcheck
          [
            prop_streams_identical;
            prop_allowed_sets_identical;
            prop_witnesses_identical;
            prop_certification_verdicts_identical;
          ] );
    ]

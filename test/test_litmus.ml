(* Tests for the litmus IR, the classic test library, and the candidate
   execution enumerator. The key facts checked here are semantic: each
   classic test's target behaviour is allowed/disallowed under its model
   exactly as the literature says. *)

module Model = Mcm_memmodel.Model
module Litmus = Mcm_litmus.Litmus
module Instr = Mcm_litmus.Instr
module Library = Mcm_litmus.Library
module Enumerate = Mcm_litmus.Enumerate

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -------------------------------------------------------------------- *)
(* Well-formedness of the whole library.                                 *)

let test_library_well_formed () =
  let assert_wf t =
    match Litmus.well_formed t with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s not well-formed: %s" t.Litmus.name e
  in
  List.iter assert_wf Library.all

let test_library_names_unique () =
  let names = List.map (fun t -> t.Litmus.name) Library.all in
  check_int "unique names" (List.length names) (List.length (List.sort_uniq compare names))

let test_find () =
  check "find corr" true (Library.find "corr" <> None);
  check "find CoRR" true (Library.find "CoRR" <> None);
  check "find nonsense" true (Library.find "does-not-exist" = None)

(* -------------------------------------------------------------------- *)
(* Allowed / disallowed classification of the classics. The comments in
   library.mli are enforced here by enumeration.                         *)

let disallowed_under_own_model =
  [
    Library.corr; Library.cowr; Library.corw; Library.coww; Library.mp_relacq; Library.mp_co;
    Library.lb_relacq; Library.sb_relacq_rmw; Library.s_relacq; Library.r_relacq_rmw;
    Library.two_plus_two_w_relacq_rmw;
  ]

let allowed_under_own_model =
  [
    Library.mp; Library.lb; Library.sb; Library.s; Library.r; Library.two_plus_two_w;
    Library.iriw; Library.wrc; Library.isa2; Library.rwc;
  ]

let test_disallowed () =
  List.iter
    (fun t ->
      check
        (Printf.sprintf "%s target disallowed under %s" t.Litmus.name (Model.name t.Litmus.model))
        false
        (Enumerate.target_allowed t.Litmus.model t))
    disallowed_under_own_model

let test_allowed () =
  List.iter
    (fun t ->
      check
        (Printf.sprintf "%s target allowed under %s" t.Litmus.name (Model.name t.Litmus.model))
        true
        (Enumerate.target_allowed t.Litmus.model t))
    allowed_under_own_model

let test_weak_tests_disallowed_under_sc () =
  (* Every weak behaviour of the classic 4-event tests is forbidden by
     sequential consistency. *)
  List.iter
    (fun t ->
      check (Printf.sprintf "%s target disallowed under SC" t.Litmus.name) false
        (Enumerate.target_allowed Model.Sc t))
    (allowed_under_own_model @ disallowed_under_own_model)

let test_relacq_tests_allowed_without_fences () =
  (* The fence tests' targets are allowed under plain SC-per-location:
     that is exactly why removing fences (mutator 3) creates mutants. *)
  List.iter
    (fun t ->
      check
        (Printf.sprintf "%s target allowed under SC-per-loc" t.Litmus.name)
        true
        (Enumerate.target_allowed Model.Sc_per_location t))
    [
      Library.mp_relacq; Library.lb_relacq; Library.sb_relacq_rmw; Library.s_relacq;
      Library.r_relacq_rmw; Library.two_plus_two_w_relacq_rmw;
    ]

let test_forbidden_cycle_reported () =
  List.iter
    (fun t ->
      match Enumerate.forbidden_cycle t with
      | Some _ -> ()
      | None -> Alcotest.failf "%s: no forbidden cycle found" t.Litmus.name)
    disallowed_under_own_model

let test_corr_cycle_matches_paper () =
  (* Fig. 2a: the CoRR violation's cycle is b -> c -> a -> b. *)
  match Enumerate.forbidden_cycle Library.corr with
  | None -> Alcotest.fail "CoRR: no cycle"
  | Some cycle ->
      (* Cycle rotation may differ; check it mentions all three events. *)
      List.iter
        (fun ev -> check (Printf.sprintf "cycle mentions %s" ev) true
            (String.length cycle >= 1 && String.contains cycle ev.[0]))
        [ "a"; "b"; "c" ]

(* -------------------------------------------------------------------- *)
(* Candidate enumeration sanity.                                         *)

let test_corr_candidate_count () =
  (* CoRR: two reads with rf in {init, W} each = 4, one write so one co
     order: 4 candidates. *)
  let total, consistent = Enumerate.count_candidates Library.corr in
  check_int "total candidates" 4 total;
  (* Outcomes (r0, r1): (0,0) (0,1) (1,1) allowed; (1,0) not. *)
  check_int "consistent candidates" 3 consistent

let test_corr_consistent_outcomes () =
  let outs = Enumerate.consistent_outcomes Model.Sc_per_location Library.corr in
  let pairs = List.map (fun o -> (o.Litmus.regs.(0).(0), o.Litmus.regs.(0).(1))) outs in
  Alcotest.(check (list (pair int int)))
    "outcomes" [ (0, 0); (0, 1); (1, 1) ] (List.sort compare pairs)

let test_mp_sc_outcomes () =
  (* Under SC the weak MP outcome (1, 0) must be absent; three SC
     outcomes remain. *)
  let outs = Enumerate.consistent_outcomes Model.Sc Library.mp in
  let pairs = List.map (fun o -> (o.Litmus.regs.(1).(0), o.Litmus.regs.(1).(1))) outs in
  check "no (1,0)" false (List.mem (1, 0) pairs);
  Alcotest.(check (list (pair int int)))
    "outcomes" [ (0, 0); (0, 1); (1, 1) ] (List.sort compare pairs)

let test_mp_scperloc_outcomes () =
  (* SC-per-location additionally allows the weak (1, 0). *)
  let outs = Enumerate.consistent_outcomes Model.Sc_per_location Library.mp in
  let pairs = List.map (fun o -> (o.Litmus.regs.(1).(0), o.Litmus.regs.(1).(1))) outs in
  Alcotest.(check (list (pair int int)))
    "outcomes" [ (0, 0); (0, 1); (1, 0); (1, 1) ] (List.sort compare pairs)

let test_model_strength_lattice () =
  (* Over every candidate execution of every library test, consistency
     respects the model-strength lattice:
     SC ⊆ TSO ⊆ SC-per-loc and SC ⊆ rel-acq ⊆ SC-per-loc. *)
  let module Cat = Mcm_memmodel.Cat in
  List.iter
    (fun t ->
      Enumerate.iter t ~f:(fun x ->
          let sc = Cat.consistent Cat.sc x in
          let tso = Cat.consistent Cat.tso x in
          let relacq = Cat.consistent Cat.relacq x in
          let coherence = Cat.consistent Cat.sc_per_location x in
          check (t.Litmus.name ^ ": SC implies TSO") true ((not sc) || tso);
          check (t.Litmus.name ^ ": TSO implies coherence") true ((not tso) || coherence);
          check (t.Litmus.name ^ ": SC implies rel-acq") true ((not sc) || relacq);
          check (t.Litmus.name ^ ": rel-acq implies coherence") true ((not relacq) || coherence)))
    Library.all

let test_cat_agrees_with_direct_models_on_candidates () =
  let module Cat = Mcm_memmodel.Cat in
  List.iter
    (fun t ->
      Enumerate.iter t ~f:(fun x ->
          List.iter
            (fun m ->
              check
                (t.Litmus.name ^ ": " ^ Model.name m ^ " agrees")
                true
                (Model.consistent m x = Cat.consistent (Cat.of_model m) x))
            Model.all))
    Library.all

let test_witness_is_consistent () =
  match Enumerate.witness Model.Sc_per_location Library.mp with
  | None -> Alcotest.fail "MP: no witness"
  | Some x ->
      check "witness consistent" true (Model.consistent Model.Sc_per_location x);
      check "witness exhibits target" true
        (Library.mp.Litmus.target (Litmus.outcome_of_execution Library.mp x))

let test_final_memory_in_outcome () =
  (* 2+2W: the final-state condition distinguishes coherence orders. *)
  let outs = Enumerate.consistent_outcomes Model.Sc Library.two_plus_two_w in
  List.iter
    (fun o ->
      check "final x is 1 or 2" true (o.Litmus.final.(0) = 1 || o.Litmus.final.(0) = 2);
      check "final y is 1 or 2" true (o.Litmus.final.(1) = 1 || o.Litmus.final.(1) = 2))
    outs;
  check "SC forbids x=1 && y=2" false
    (List.exists (fun o -> o.Litmus.final.(0) = 1 && o.Litmus.final.(1) = 2) outs)

(* -------------------------------------------------------------------- *)
(* IR helpers.                                                           *)

let test_instr_helpers () =
  check "load uses loc" true (Instr.uses_loc ((Instr.load ~reg:0 ~loc:3 ())) = Some 3);
  check "fence uses no loc" true (Instr.uses_loc (Instr.fence ()) = None);
  check "store defines no reg" true (Instr.defines_reg ((Instr.store ~loc:0 ~value:1 ())) = None);
  check "rmw defines reg" true (Instr.defines_reg ((Instr.rmw ~reg:2 ~loc:0 ~value:1 ())) = Some 2);
  check "fence not memory access" false (Instr.is_memory_access (Instr.fence ()));
  check "rmw is memory access" true (Instr.is_memory_access ((Instr.rmw ~reg:0 ~loc:0 ~value:1 ())))

let test_instr_pp () =
  let names l = Litmus.loc_name l in
  Alcotest.(check string)
    "load" "r0 = atomicLoad(x)"
    (Instr.to_string ~loc_names:names ((Instr.load ~reg:0 ~loc:0 ())));
  Alcotest.(check string)
    "store" "atomicStore(y, 2)"
    (Instr.to_string ~loc_names:names ((Instr.store ~loc:1 ~value:2 ())));
  Alcotest.(check string) "fence" "storageBarrier()" (Instr.to_string ~loc_names:names (Instr.fence ()))

let test_nregs () =
  let nregs = Litmus.nregs Library.corr in
  Alcotest.(check (list int)) "corr regs" [ 2; 0 ] (Array.to_list nregs)

let test_well_formed_rejects () =
  let bad_loc =
    { Library.corr with Litmus.nlocs = 0 }
  in
  check "loc out of range" true (Litmus.well_formed bad_loc |> Result.is_error);
  let double_reg =
    {
      Library.corr with
      Litmus.threads =
        [| [ (Instr.load ~reg:0 ~loc:0 ()); (Instr.load ~reg:0 ~loc:0 ()) ]; [] |];
    }
  in
  check "register written twice" true (Litmus.well_formed double_reg |> Result.is_error);
  let dup_value =
    {
      Library.corr with
      Litmus.threads =
        [| [ (Instr.store ~loc:0 ~value:1 ()); (Instr.store ~loc:0 ~value:1 ()) ] |];
    }
  in
  check "duplicate stored value" true (Litmus.well_formed dup_value |> Result.is_error);
  let zero_value =
    { Library.corr with Litmus.threads = [| [ (Instr.store ~loc:0 ~value:0 ()) ] |] }
  in
  check "stored zero" true (Litmus.well_formed zero_value |> Result.is_error)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* -------------------------------------------------------------------- *)
(* Textual format: parser and printer.                                    *)

module Parse = Mcm_litmus.Parse
module Classify = Mcm_litmus.Classify

let mp_source =
  {|# message passing, fenced
test MP-relacq
model relacq
locations x y
thread P0
  store x 1
  fence
  store y 1
thread P1
  r0 = load y
  fence
  r1 = load x
target P1:r0 == 1 && P1:r1 == 0
|}

let test_parse_mp () =
  match Parse.parse mp_source with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok t ->
      Alcotest.(check string) "name" "MP-relacq" t.Litmus.name;
      check "model" true (t.Litmus.model = Model.Relacq_sc_per_location);
      check_int "threads" 2 (Litmus.nthreads t);
      check_int "locations" 2 t.Litmus.nlocs;
      (* Behaviourally identical to the hand-written library test. *)
      let reference = Library.mp_relacq in
      check "same classification" true
        (Enumerate.target_allowed t.Litmus.model t
        = Enumerate.target_allowed reference.Litmus.model reference);
      let outcomes = Enumerate.outcomes reference in
      List.iter
        (fun o ->
          check "targets agree" true (t.Litmus.target o = reference.Litmus.target o))
        outcomes

let test_parse_rmw_and_exchange () =
  let src =
    "test t\nthread P0\n  r0 = exchange x 1\nthread P1\n  store x 2\ntarget P0:r0 == 2\n"
  in
  match Parse.parse src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok t -> (
      match t.Litmus.threads.(0) with
      | [ Instr.Rmw { reg = 0; loc = 0; value = 1; _ } ] -> ()
      | _ -> Alcotest.fail "expected an exchange instruction")

let test_parse_condition_operators () =
  let src thread_cond =
    "test t\nthread P0\n  r0 = load x\nthread P1\n  store x 1\ntarget " ^ thread_cond ^ "\n"
  in
  let outcome_with r0 final =
    match Parse.parse (src "true") with
    | Error e -> Alcotest.failf "setup: %s" e
    | Ok t ->
        let o = Litmus.empty_outcome t in
        o.Litmus.regs.(0).(0) <- r0;
        o.Litmus.final.(0) <- final;
        o
  in
  let target cond o =
    match Parse.parse (src cond) with
    | Error e -> Alcotest.failf "parse %S: %s" cond e
    | Ok t -> t.Litmus.target o
  in
  check "conjunction" true (target "P0:r0 == 1 && x == 1" (outcome_with 1 1));
  check "conjunction fails" false (target "P0:r0 == 1 && x == 1" (outcome_with 0 1));
  check "disjunction" true (target "P0:r0 == 1 || x == 9" (outcome_with 1 1));
  check "negation" true (target "!(P0:r0 == 1)" (outcome_with 0 1));
  check "precedence: ! binds tightest" true (target "!P0:r0 == 1 || x == 1" (outcome_with 1 1));
  check "parens" false (target "!(P0:r0 == 1 || x == 1)" (outcome_with 1 1));
  check "constants" true (target "true" (outcome_with 0 0));
  check "false constant" false (target "false" (outcome_with 0 0))

let test_parse_errors_report () =
  let cases =
    [
      ("", "missing test");
      ("test t\n", "missing target");
      ("test t\ntarget true\n", "no threads");
      ("test t\nthread P0\n  bogus op\ntarget true\n", "unrecognised");
      ("test t\nthread P0\n  store x 1\ntarget P9:r0 == 1\n", "unknown thread");
      ("test t\nthread P0\n  store x 1\ntarget y == 1\n", "unknown location");
      ("test t\nmodel tso\nthread P0\n  store x 1\ntarget true\n", "unknown model");
      ("test t\nthread P0\nthread P0\ntarget true\n", "duplicate thread");
      ("test t\nthread P0\n  store x 1\ntarget x == \n", "value");
      ("test t\nthread P0\n  store x 0\ntarget true\n", "reserved");
    ]
  in
  List.iter
    (fun (src, _hint) ->
      match Parse.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected a parse error for %S" src)
    cases

(* Outcomes one location, thread or register longer or shorter than
   [o]. *)
let wrong_shapes (o : Litmus.outcome) =
  let grow a = Array.append a [| 0 |] and drop a = Array.sub a 0 (Array.length a - 1) in
  let rows = o.Litmus.regs in
  let row t r = { o with Litmus.regs = Array.mapi (fun i x -> if i = t then r else x) rows } in
  [
    { o with Litmus.final = grow o.Litmus.final };
    { o with Litmus.regs = Array.append rows [| [||] |] };
  ]
  @ (if o.Litmus.final = [||] then [] else [ { o with Litmus.final = drop o.Litmus.final } ])
  @ (if rows = [||] then [] else [ { o with Litmus.regs = drop rows } ])
  @ List.concat
      (List.init (Array.length rows) (fun t ->
           row t (grow rows.(t)) :: (if rows.(t) = [||] then [] else [ row t (drop rows.(t)) ])))

(* print-then-parse preserves the program and the target on every
   candidate outcome, and with [~other_shapes] on every outcome of
   another shape too. *)
let check_roundtrip ~other_shapes reference =
  match Parse.parse (Parse.to_source reference) with
  | Error e -> Alcotest.failf "%s: reparse failed: %s" reference.Litmus.name e
  | Ok t ->
      check (reference.Litmus.name ^ " same program") true
        (t.Litmus.threads = reference.Litmus.threads && t.Litmus.model = reference.Litmus.model);
      List.iter
        (fun o ->
          List.iter
            (fun o ->
              check (reference.Litmus.name ^ " targets agree") true
                (t.Litmus.target o = reference.Litmus.target o))
            (if other_shapes then o :: wrong_shapes o else [ o ]))
        (Enumerate.outcomes reference)

(* Hand-written targets index the outcome directly, so they are only
   asked about outcomes of their test's shape. *)
let test_roundtrip_library () = List.iter (check_roundtrip ~other_shapes:false) Library.all

let test_roundtrip_generated () =
  let suite =
    List.map (fun (e : Mcm_core.Suite.entry) -> e.Mcm_core.Suite.test) (Mcm_core.Suite.all ())
  in
  let corpus =
    List.map
      (fun (e : Mcm_corpus.Admit.entry) -> e.Mcm_corpus.Admit.test)
      (Mcm_corpus.Corpus.generate Mcm_corpus.Corpus.default_meta).Mcm_corpus.Corpus.entries
  in
  check "suite and corpus are not empty" true (suite <> [] && corpus <> []);
  List.iter (check_roundtrip ~other_shapes:true) (suite @ corpus)

(* -------------------------------------------------------------------- *)
(* Behaviour classification.                                              *)

let test_sequential_outcomes_mp () =
  let outs = Classify.sequential_outcomes Library.mp in
  (* Two thread orders: writer first -> (1,1); reader first -> (0,0). *)
  check_int "two sequential outcomes" 2 (List.length outs);
  let pairs = List.map (fun o -> (o.Litmus.regs.(1).(0), o.Litmus.regs.(1).(1))) outs in
  Alcotest.(check (list (pair int int))) "pairs" [ (0, 0); (1, 1) ] (List.sort compare pairs)

let test_classify_mp () =
  let classify = Classify.classifier Library.mp in
  let outcome r0 r1 =
    let o = Litmus.empty_outcome Library.mp in
    o.Litmus.regs.(1).(0) <- r0;
    o.Litmus.regs.(1).(1) <- r1;
    o.Litmus.final.(0) <- 1;
    o.Litmus.final.(1) <- 1;
    o
  in
  check "both-new is sequential" true (classify (outcome 1 1) = Classify.Sequential);
  check "flag-miss data-hit is interleaved" true (classify (outcome 0 1) = Classify.Interleaved);
  check "weak MP outcome" true (classify (outcome 1 0) = Classify.Weak)

let test_classify_forbidden () =
  let classify = Classify.classifier Library.corr in
  let o = Litmus.empty_outcome Library.corr in
  o.Litmus.regs.(0).(0) <- 1;
  o.Litmus.regs.(0).(1) <- 0;
  o.Litmus.final.(0) <- 1;
  check "CoRR violation is forbidden" true (classify o = Classify.Forbidden);
  (* An outcome outside the candidate space is forbidden too. *)
  let garbage = Litmus.empty_outcome Library.corr in
  garbage.Litmus.regs.(0).(0) <- 999;
  check "garbage is forbidden" true (classify garbage = Classify.Forbidden)

let test_classify_relacq_weak_vs_forbidden () =
  (* The same weak outcome is Weak for plain MP but Forbidden for the
     fenced version — the model field decides. *)
  let weak_of test =
    let o = Litmus.empty_outcome test in
    o.Litmus.regs.(1).(0) <- 1;
    o.Litmus.regs.(1).(1) <- 0;
    o.Litmus.final.(0) <- 1;
    o.Litmus.final.(1) <- 1;
    o
  in
  check "weak under MP" true (Classify.classifier Library.mp (weak_of Library.mp) = Classify.Weak);
  check "forbidden under MP-relacq" true
    (Classify.classifier Library.mp_relacq (weak_of Library.mp_relacq) = Classify.Forbidden)

let test_sequential_subset_of_sc () =
  List.iter
    (fun t ->
      let seq = Classify.sequential_outcomes t in
      let sc = Enumerate.consistent_outcomes Model.Sc t in
      List.iter
        (fun o ->
          check (t.Litmus.name ^ " sequential is SC") true (List.mem o sc))
        seq)
    [ Library.mp; Library.sb; Library.corr; Library.iriw; Library.sb_relacq_rmw ]

let test_pp_contains_program () =
  let s = Litmus.to_string Library.mp_relacq in
  check "mentions storageBarrier" true (contains s "storageBarrier()");
  check "mentions the data store" true (contains s "atomicStore(x, 1)");
  check "mentions the target" true (contains s "t1.r0 = 1 && t1.r1 = 0")

let () =
  Alcotest.run "litmus"
    [
      ( "library",
        [
          Alcotest.test_case "well-formed" `Quick test_library_well_formed;
          Alcotest.test_case "unique names" `Quick test_library_names_unique;
          Alcotest.test_case "find" `Quick test_find;
        ] );
      ( "classification",
        [
          Alcotest.test_case "disallowed targets" `Quick test_disallowed;
          Alcotest.test_case "allowed targets" `Quick test_allowed;
          Alcotest.test_case "weak targets disallowed under SC" `Quick
            test_weak_tests_disallowed_under_sc;
          Alcotest.test_case "relacq targets allowed without fences" `Quick
            test_relacq_tests_allowed_without_fences;
          Alcotest.test_case "forbidden cycles reported" `Quick test_forbidden_cycle_reported;
          Alcotest.test_case "CoRR cycle mentions a b c" `Quick test_corr_cycle_matches_paper;
        ] );
      ( "enumeration",
        [
          Alcotest.test_case "CoRR candidate count" `Quick test_corr_candidate_count;
          Alcotest.test_case "CoRR consistent outcomes" `Quick test_corr_consistent_outcomes;
          Alcotest.test_case "MP outcomes under SC" `Quick test_mp_sc_outcomes;
          Alcotest.test_case "MP outcomes under SC-per-loc" `Quick test_mp_scperloc_outcomes;
          Alcotest.test_case "model strength lattice" `Slow test_model_strength_lattice;
          Alcotest.test_case "CAT agrees with direct models" `Slow
            test_cat_agrees_with_direct_models_on_candidates;
          Alcotest.test_case "witness consistency" `Quick test_witness_is_consistent;
          Alcotest.test_case "final memory in outcomes" `Quick test_final_memory_in_outcome;
        ] );
      ( "parse",
        [
          Alcotest.test_case "MP source" `Quick test_parse_mp;
          Alcotest.test_case "exchange instruction" `Quick test_parse_rmw_and_exchange;
          Alcotest.test_case "condition operators" `Quick test_parse_condition_operators;
          Alcotest.test_case "errors reported" `Quick test_parse_errors_report;
          Alcotest.test_case "library round-trip" `Slow test_roundtrip_library;
          Alcotest.test_case "suite and 2x4x2 corpus round-trip" `Slow test_roundtrip_generated;
        ] );
      ( "classify",
        [
          Alcotest.test_case "sequential outcomes of MP" `Quick test_sequential_outcomes_mp;
          Alcotest.test_case "MP classification" `Quick test_classify_mp;
          Alcotest.test_case "forbidden outcomes" `Quick test_classify_forbidden;
          Alcotest.test_case "weak vs forbidden by model" `Quick
            test_classify_relacq_weak_vs_forbidden;
          Alcotest.test_case "sequential subset of SC" `Quick test_sequential_subset_of_sc;
        ] );
      ( "ir",
        [
          Alcotest.test_case "instr helpers" `Quick test_instr_helpers;
          Alcotest.test_case "instr pretty-printing" `Quick test_instr_pp;
          Alcotest.test_case "nregs" `Quick test_nregs;
          Alcotest.test_case "well-formed rejections" `Quick test_well_formed_rejects;
          Alcotest.test_case "test pretty-printing" `Quick test_pp_contains_program;
        ] );
    ]

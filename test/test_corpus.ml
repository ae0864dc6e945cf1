(* The generated-corpus subsystem: shape parsing, enumerator soundness
   (rediscovery of the classic two-location tests from the bare 2x4x2
   space), the oracle-certified admission gate (both engines must agree
   on every verdict), the operator layer, print/parse round-trips that
   preserve store identity, and corpus serialization. *)

module Model = Mcm_memmodel.Model
module Litmus = Mcm_litmus.Litmus
module Library = Mcm_litmus.Library
module Parse = Mcm_litmus.Parse
module Enumerate = Mcm_litmus.Enumerate
module Mutator = Mcm_core.Mutator
module Suite = Mcm_core.Suite
module Engine = Mcm_oracle.Engine
module Outcome = Mcm_oracle.Outcome
module Key = Mcm_campaign.Key
module Shape = Mcm_corpus.Shape
module Generate = Mcm_corpus.Generate
module Admit = Mcm_corpus.Admit
module Corpus = Mcm_corpus.Corpus
module Version = Mcm_corpus.Version

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Shape                                                                *)

let test_shape_parse () =
  (match Shape.of_spec "2x4x2" with
  | Ok s ->
      check_int "threads" 2 s.Shape.threads;
      check_int "events" 4 s.Shape.events;
      check_int "locs" 2 s.Shape.locs;
      check_bool "no rmw" false s.Shape.rmw
  | Error e -> Alcotest.failf "2x4x2 rejected: %s" e);
  (match Shape.of_spec ~rmw:true ~fence:true "3x6x3" with
  | Ok s ->
      check_bool "rmw" true s.Shape.rmw;
      check_bool "fence" true s.Shape.fence
  | Error e -> Alcotest.failf "3x6x3 rejected: %s" e);
  check_string "spec round-trip" "2x4x2" (Shape.to_spec Shape.default)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let test_shape_strict () =
  let fails ~mentions spec =
    match Shape.of_spec spec with
    | Ok _ -> Alcotest.failf "%S accepted" spec
    | Error e ->
        check_bool (Printf.sprintf "%S error mentions %S (got %S)" spec mentions e) true
          (contains ~needle:mentions e)
  in
  fails ~mentions:"THREADSxEVENTSxLOCS" "2x4";
  fails ~mentions:"THREADSxEVENTSxLOCS" "banana";
  fails ~mentions:"threads" "axbxc";
  fails ~mentions:"threads must be in" "7x4x2";
  fails ~mentions:"events must be in" "2x9x2";
  fails ~mentions:"events must be in" "3x2x2";
  fails ~mentions:"locations must be in" "2x4x0";
  (* JSON round-trip *)
  let s = { Shape.threads = 3; events = 5; locs = 2; rmw = true; fence = false; wg_fence = false } in
  match Shape.of_json (Mcm_util.Jsonw.Obj (Shape.fields s)) with
  | Ok s' -> check_bool "json round-trip" true (s = s')
  | Error e -> Alcotest.failf "shape json round-trip: %s" e

(* ------------------------------------------------------------------ *)
(* Generator                                                            *)

let test_enumerate_deterministic () =
  let shape = Shape.default in
  let a, raw_a = Generate.enumerate shape in
  let b, raw_b = Generate.enumerate shape in
  check_bool "same skeletons" true (a = b);
  check_int "same raw count" raw_a raw_b;
  check_bool "nonempty" true (a <> []);
  check_bool "raw >= canonical" true (raw_a >= List.length a);
  (* every canonical skeleton is a fixpoint of canonicalization *)
  List.iter
    (fun sk ->
      check_bool
        ("canonical fixpoint: " ^ Generate.to_string sk)
        true
        (Generate.canonical sk = sk))
    a

let test_canonical_modulo_renaming () =
  (* mp and its thread/location relabellings collapse to one skeleton *)
  let open Generate in
  let mp = [| [ St 0; St 1 ]; [ Ld 1; Ld 0 ] |] in
  let swapped_threads = [| [ Ld 1; Ld 0 ]; [ St 0; St 1 ] |] in
  let swapped_locs = [| [ St 1; St 0 ]; [ Ld 0; Ld 1 ] |] in
  let c = canonical mp in
  check_bool "thread perm" true (canonical swapped_threads = c);
  check_bool "loc perm" true (canonical swapped_locs = c);
  (* concretization is well-formed *)
  let test =
    {
      Litmus.name = "c";
      family = "t";
      model = Model.Sc_per_location;
      threads = concretize c;
      nlocs = nlocs c;
      target = (fun _ -> false);
      target_desc = "false";
    }
  in
  match Litmus.well_formed test with
  | Ok () -> ()
  | Error e -> Alcotest.failf "concretized canonical mp not well-formed: %s" e

let test_sample_deterministic () =
  let xs = List.init 100 Fun.id in
  let a = Generate.sample ~seed:7 ~bound:10 xs in
  let b = Generate.sample ~seed:7 ~bound:10 xs in
  check_bool "same sample" true (a = b);
  check_int "bound respected" 10 (List.length a);
  check_bool "order preserved" true (List.sort compare a = a);
  check_bool "different seed, different sample" true (Generate.sample ~seed:8 ~bound:10 xs <> a);
  check_bool "bound >= n is identity" true (Generate.sample ~seed:7 ~bound:200 xs = xs)

(* ------------------------------------------------------------------ *)
(* Rediscovery of the classics                                          *)

(* The corpus of the bare classic space, admission-gated. Computed once:
   the 2x4x2 derivation is the expensive part of this file. *)
let classic_entries =
  lazy
    (Admit.generated ~model:Model.Sc_per_location ~domains:2 Shape.default)

let satisfying_outcomes test = List.filter test.Litmus.target (Enumerate.outcomes test)

let test_rediscovers_classics () =
  let entries, _ = Lazy.force classic_entries in
  List.iter
    (fun classic ->
      let ck = Generate.to_string (Generate.canonical (Generate.of_threads classic.Litmus.threads)) in
      match
        List.find_opt
          (fun (e : Admit.entry) -> e.skeleton = ck && e.polarity = Admit.Mutant_weak)
          entries
      with
      | None ->
          Alcotest.failf "classic %s (skeleton %s) not rediscovered as a weak mutant"
            classic.Litmus.name ck
      | Some e ->
          (* Same weak behaviour, modulo renaming: the classic's target
             denotes the same number of outcomes as the generated one,
             and the generated target is exactly the weak set. *)
          check_int
            (classic.Litmus.name ^ " target size")
            (List.length (satisfying_outcomes classic))
            (List.length (satisfying_outcomes e.test)))
    [ Library.mp; Library.lb; Library.sb; Library.s; Library.r; Library.two_plus_two_w ]

let test_admission_gate () =
  let entries, stats = Lazy.force classic_entries in
  check_bool "admitted something" true (stats.Admit.admitted > 0);
  check_int "every admitted entry is certified" 0 stats.Admit.uncertified;
  check_int "entries match admitted count" stats.Admit.admitted (List.length entries);
  List.iter
    (fun (e : Admit.entry) ->
      check_bool (e.test.Litmus.name ^ " verdict ok") true e.verdict.Mcm_oracle.Certify.ok;
      (match e.polarity with
      | Admit.Conformance ->
          check_bool
            (e.test.Litmus.name ^ " target disallowed")
            false
            (Outcome.target_allowed e.test.Litmus.model e.test)
      | Admit.Mutant_weak | Admit.Mutant_interleaved ->
          check_bool
            (e.test.Litmus.name ^ " target allowed")
            true
            (Outcome.target_allowed e.test.Litmus.model e.test));
      match Litmus.well_formed e.test with
      | Ok () -> ()
      | Error err -> Alcotest.failf "%s not well-formed: %s" e.test.Litmus.name err)
    entries

let test_both_engines_agree () =
  (* Re-run the whole admission of a small shape under cross-check: any
     divergence between Enumerate and Propagate counts. *)
  let shape = { Shape.default with Shape.events = 3 } in
  let _, stats = Admit.generated ~cross_check:true ~model:Model.Sc_per_location shape in
  check_int "no cross-engine disagreements" 0 stats.Admit.disagreements;
  check_int "no uncertified" 0 stats.Admit.uncertified

(* ------------------------------------------------------------------ *)
(* Operator layer                                                       *)

let test_apply_op () =
  let mp_threads = Library.mp.Litmus.threads in
  let sdl = Mutator.apply_op Mutator.Sdl mp_threads in
  check_int "sdl variants on mp" 4 (List.length sdl);
  let ror = Mutator.apply_op Mutator.Ror mp_threads in
  check_int "ror variants on mp" 2 (List.length ror);
  check_int "uoi on fence-free mp" 0 (List.length (Mutator.apply_op Mutator.Uoi mp_threads));
  let relacq = Library.mp_relacq.Litmus.threads in
  check_int "uoi variants on mp_relacq" 2 (List.length (Mutator.apply_op Mutator.Uoi relacq));
  (* determinism + labels *)
  check_bool "deterministic" true (Mutator.apply_op Mutator.Sdl mp_threads = sdl);
  (match sdl with
  | (label, threads) :: _ ->
      check_string "first label" "t0.0" label;
      check_int "thread count preserved" (Array.length mp_threads) (Array.length threads)
  | [] -> Alcotest.fail "no sdl variants");
  (* no variant empties a thread *)
  List.iter
    (fun (_, threads) ->
      Array.iter (fun t -> check_bool "thread nonempty" true (t <> [])) threads)
    (sdl @ ror)

let test_operator_mutants_certified () =
  let parents =
    List.filter
      (fun t ->
        List.mem t.Litmus.name [ "CoRR"; "MP-relacq"; "MP-CO" ])
      (List.map (fun e -> e.Suite.test) (Suite.conformance_tests ()))
  in
  check_int "three parents found" 3 (List.length parents);
  let entries, stats =
    Admit.operator_mutants ~cross_check:true ~domains:2 ~ops:Mutator.all_ops parents
  in
  check_int "no disagreements" 0 stats.Admit.disagreements;
  check_int "no uncertified" 0 stats.Admit.uncertified;
  check_bool "operators produced mutants" true (entries <> []);
  List.iter
    (fun (e : Admit.entry) ->
      check_bool (e.test.Litmus.name ^ " certified") true e.verdict.Mcm_oracle.Certify.ok;
      check_bool (e.test.Litmus.name ^ " has parent") true (e.parent <> None);
      check_bool (e.test.Litmus.name ^ " has op") true (e.op <> None);
      check_bool
        (e.test.Litmus.name ^ " family records operator")
        true
        (contains ~needle:"/op-" e.test.Litmus.family))
    entries;
  (* uoi on MP-relacq rediscovers the weakening-sw disruption: a weak
     mutant from fence removal. *)
  check_bool "uoi on MP-relacq yields a weak mutant" true
    (List.exists
       (fun (e : Admit.entry) ->
         e.parent = Some "MP-relacq" && e.op = Some "uoi" && e.polarity = Admit.Mutant_weak)
       entries);
  (* sdl on MP-CO (one location) yields an interleaving-killed mutant. *)
  check_bool "sdl on MP-CO yields a mutant" true
    (List.exists
       (fun (e : Admit.entry) -> e.parent = Some "MP-CO" && e.op = Some "sdl")
       entries)

(* ------------------------------------------------------------------ *)
(* Print/parse round-trip                                               *)

let roundtrip_entry (e : Admit.entry) =
  let test = e.test in
  let src = Parse.to_source test in
  match Parse.parse src with
  | Error err -> Alcotest.failf "%s: parse of printed source failed: %s" test.Litmus.name err
  | Ok parsed ->
      check_string (test.Litmus.name ^ " name") test.Litmus.name parsed.Litmus.name;
      check_bool (test.Litmus.name ^ " threads") true
        (parsed.Litmus.threads = test.Litmus.threads);
      check_int (test.Litmus.name ^ " nlocs") test.Litmus.nlocs parsed.Litmus.nlocs;
      check_bool (test.Litmus.name ^ " model") true (parsed.Litmus.model = test.Litmus.model);
      (* target agreement over the whole candidate outcome space *)
      let outcomes = Enumerate.outcomes test in
      List.iter
        (fun o ->
          check_bool
            (test.Litmus.name ^ " target agrees on " ^ Litmus.outcome_to_string o)
            (test.Litmus.target o) (parsed.Litmus.target o))
        outcomes;
      (* print is a fixpoint: print (parse (print t)) == print t *)
      check_string (test.Litmus.name ^ " print fixpoint") src (Parse.to_source parsed);
      (* store identity survives the round-trip once family is restored *)
      let restored = { parsed with Litmus.family = test.Litmus.family } in
      check_string
        (test.Litmus.name ^ " test blob stable")
        (Key.test_blob test) (Key.test_blob restored)

let test_roundtrip_generated () =
  let entries, _ = Lazy.force classic_entries in
  (* a deterministic sample keeps the candidate-space re-enumeration
     affordable; the corpus bench round-trips entire corpora by bytes *)
  List.iter roundtrip_entry (Generate.sample ~seed:11 ~bound:40 entries)

let test_roundtrip_operator_mutants () =
  let parents =
    List.filter
      (fun t -> List.mem t.Litmus.name [ "MP-relacq"; "CoWW" ])
      (List.map (fun e -> e.Suite.test) (Suite.conformance_tests ()))
  in
  let entries, _ = Admit.operator_mutants ~ops:Mutator.all_ops parents in
  List.iter roundtrip_entry entries

(* ------------------------------------------------------------------ *)
(* Corpus format                                                        *)

let small_meta =
  {
    Corpus.default_meta with
    Corpus.shape = { Shape.default with Shape.events = 3 };
    ops = [ Mutator.Uoi ];
  }

let test_corpus_reproducible () =
  let a = Corpus.generate small_meta in
  let b = Corpus.generate ~domains:2 small_meta in
  check_string "byte-identical across runs and domain counts" (Corpus.to_string a)
    (Corpus.to_string b);
  check_bool "keys equal" true (Key.equal (Corpus.key a) (Corpus.key b))

let test_corpus_save_load () =
  let c = Corpus.generate small_meta in
  let path = Filename.temp_file "mcm_corpus" ".json" in
  Corpus.save ~path c;
  (match Corpus.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok loaded ->
      check_bool "key survives load" true (Key.equal (Corpus.key c) (Corpus.key loaded));
      check_int "entry count" (List.length c.Corpus.entries) (List.length loaded.Corpus.entries);
      List.iter2
        (fun (a : Admit.entry) (b : Admit.entry) ->
          check_string "name" a.test.Litmus.name b.test.Litmus.name;
          check_string "blob" (Key.test_blob a.test) (Key.test_blob b.test);
          check_bool "verdict" true (a.verdict = b.verdict))
        c.Corpus.entries loaded.Corpus.entries;
      check_string "save/load bytes stable" (Corpus.to_string c) (Corpus.to_string loaded));
  Sys.remove path

let test_corpus_tamper_detected () =
  let c = Corpus.generate small_meta in
  let s = Corpus.to_string c in
  (* flip the recorded seed without recomputing the key *)
  let needle = "\"seed\":0" in
  let i =
    let rec find i =
      if i + String.length needle > String.length s then -1
      else if String.sub s i (String.length needle) = needle then i
      else find (i + 1)
    in
    find 0
  in
  check_bool "seed field present" true (i >= 0);
  let tampered =
    String.sub s 0 i ^ "\"seed\":1" ^ String.sub s (i + String.length needle)
        (String.length s - i - String.length needle)
  in
  match Corpus.of_string tampered with
  | Ok _ -> Alcotest.fail "tampered corpus accepted"
  | Error e -> check_bool "error names the key mismatch" true (contains ~needle:"key mismatch" e)

let test_corpus_recertify () =
  let c = Corpus.generate small_meta in
  let rechecks = Corpus.recertify ~domains:2 c in
  check_int "every entry rechecked" (List.length c.Corpus.entries) (List.length rechecks);
  List.iter
    (fun (r : Corpus.recheck) ->
      check_bool (r.Corpus.name ^ " engines agree") true r.Corpus.engines_agree;
      check_bool (r.Corpus.name ^ " matches stored") true r.Corpus.matches_stored)
    rechecks

let test_version_in_family () =
  let entries, _ = Lazy.force classic_entries in
  List.iter
    (fun (e : Admit.entry) ->
      check_bool
        (e.test.Litmus.name ^ " family carries corpus version")
        true
        (contains ~needle:Version.version e.test.Litmus.family))
    entries

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "corpus"
    [
      ( "shape",
        [
          Alcotest.test_case "parse" `Quick test_shape_parse;
          Alcotest.test_case "strict errors" `Quick test_shape_strict;
        ] );
      ( "generate",
        [
          Alcotest.test_case "deterministic" `Quick test_enumerate_deterministic;
          Alcotest.test_case "canonical modulo renaming" `Quick test_canonical_modulo_renaming;
          Alcotest.test_case "seeded sampling" `Quick test_sample_deterministic;
        ] );
      ( "admission",
        [
          Alcotest.test_case "rediscovers the classics" `Slow test_rediscovers_classics;
          Alcotest.test_case "gate invariants" `Slow test_admission_gate;
          Alcotest.test_case "both engines agree" `Slow test_both_engines_agree;
        ] );
      ( "operators",
        [
          Alcotest.test_case "apply_op" `Quick test_apply_op;
          Alcotest.test_case "certified operator mutants" `Slow test_operator_mutants_certified;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "generated programs" `Slow test_roundtrip_generated;
          Alcotest.test_case "operator mutants" `Slow test_roundtrip_operator_mutants;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "reproducible bytes" `Slow test_corpus_reproducible;
          Alcotest.test_case "save/load" `Slow test_corpus_save_load;
          Alcotest.test_case "tamper detection" `Slow test_corpus_tamper_detected;
          Alcotest.test_case "recertify" `Slow test_corpus_recertify;
          Alcotest.test_case "version in family" `Slow test_version_in_family;
        ] );
    ]

(* The generated-corpus subsystem: shape parsing, enumerator soundness
   (rediscovery of the classic two-location tests from the bare 2x4x2
   space), the oracle-certified admission gate (both engines must agree
   on every verdict), the operator layer, print/parse round-trips that
   preserve store identity, corpus serialization, and a generated corpus
   run as a store-backed campaign. *)

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
module Pool = Mcm_util.Pool
module Store = Mcm_campaign.Store
module Sched = Mcm_campaign.Sched
module Request = Mcm_testenv.Request
module Runner = Mcm_testenv.Runner
module Grid = Mcm_harness.Grid

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

(* The specification of the enumerator: the list builder over [sym]
   lists, canonicalizing every raw program by trying each thread order
   with locations renumbered through a hash table and comparing with
   [compare]. The library's enumerator works on packed symbol codes; it
   must produce the same skeletons in the same order and the same raw
   count, because that order decides [--shard] membership and every
   corpus key. *)
module Spec = struct
  open Generate

  let permutations xs =
    let rec perms = function
      | [] -> [ [] ]
      | xs ->
          List.concat
            (List.mapi
               (fun i x ->
                 let rest = List.filteri (fun j _ -> j <> i) xs in
                 List.map (fun p -> x :: p) (perms rest))
               xs)
    in
    perms xs

  let renumber threads =
    let map = Hashtbl.create 4 in
    let next = ref 0 in
    let num l =
      match Hashtbl.find_opt map l with
      | Some v -> v
      | None ->
          let v = !next in
          incr next;
          Hashtbl.add map l v;
          v
    in
    List.map
      (List.map (function
        | Ld l -> Ld (num l)
        | St l -> St (num l)
        | Um l -> Um (num l)
        | (Fn | Fw) as f -> f))
      threads

  let canonical threads =
    let best = ref None in
    List.iter
      (fun perm ->
        let cand = renumber perm in
        match !best with
        | None -> best := Some cand
        | Some b -> if compare cand b < 0 then best := Some cand)
      (permutations (Array.to_list threads));
    Array.of_list (Option.get !best)

  let alphabet (shape : Shape.t) =
    List.concat_map
      (fun l -> Ld l :: St l :: (if shape.rmw then [ Um l ] else []))
      (List.init shape.locs Fun.id)
    @ (if shape.fence then [ Fn ] else [])
    @ if shape.wg_fence then [ Fw ] else []

  let rec compositions n k =
    if k = 1 then if n >= 1 then [ [ n ] ] else []
    else
      List.concat
        (List.init (n - k + 1) (fun i ->
             let first = i + 1 in
             List.map (fun rest -> first :: rest) (compositions (n - first) (k - 1))))

  let is_fence_sym = function Fn | Fw -> true | Ld _ | St _ | Um _ -> false

  let iter_seqs alpha len f =
    let rec go prev remaining acc =
      if remaining = 0 then (
        match prev with Some p when is_fence_sym p -> () | _ -> f (List.rev acc))
      else
        List.iter
          (fun s ->
            let prev_fence = match prev with None -> true | Some p -> is_fence_sym p in
            if not (is_fence_sym s && prev_fence) then go (Some s) (remaining - 1) (s :: acc))
          alpha
    in
    go None len []

  let is_access = function Ld _ | St _ | Um _ -> true | Fn | Fw -> false
  let is_write = function St _ | Um _ -> true | Ld _ | Fn | Fw -> false
  let loc_of = function Ld l | St l | Um l -> Some l | Fn | Fw -> None

  let interesting threads =
    Array.for_all (List.exists is_access) threads
    && Array.exists (List.exists is_write) threads
    &&
    let touched tid l = List.exists (fun s -> loc_of s = Some l) threads.(tid)
    and writes tid l = List.exists (fun s -> is_write s && loc_of s = Some l) threads.(tid) in
    let n = Array.length threads in
    let conflict = ref false in
    for l = 0 to nlocs threads - 1 do
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j && writes i l && touched j l then conflict := true
        done
      done
    done;
    !conflict

  let enumerate (shape : Shape.t) =
    let alpha = alphabet shape in
    let seen = Hashtbl.create 1024 in
    let out = ref [] and raw = ref 0 in
    let visit threads =
      if interesting threads then begin
        incr raw;
        let c = canonical threads in
        let key = to_string c in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          out := c :: !out
        end
      end
    in
    for k = 2 to shape.threads do
      for n = k to shape.events do
        List.iter
          (fun lens ->
            let rec fill acc = function
              | [] -> visit (Array.of_list (List.rev acc))
              | len :: rest -> iter_seqs alpha len (fun seq -> fill (seq :: acc) rest)
            in
            fill [] lens)
          (compositions n k)
      done
    done;
    (List.rev !out, !raw)
end

(* Every shape [Shape.validate] accepts (2-3 threads, up to 6 events,
   1-3 locations), under each of the eight alphabets. *)
let all_shapes =
  List.concat_map
    (fun threads ->
      List.concat_map
        (fun events ->
          List.concat_map
            (fun locs ->
              List.map
                (fun (rmw, fence, wg_fence) ->
                  { Shape.threads; events; locs; rmw; fence; wg_fence })
                [
                  (false, false, false); (true, false, false); (false, true, false);
                  (false, false, true); (true, true, false); (true, false, true);
                  (false, true, true); (true, true, true);
                ])
            [ 1; 2; 3 ])
        (List.init (6 - threads + 1) (fun e -> threads + e)))
    [ 2; 3 ]

(* The shapes the specification takes over 0.1 s to enumerate (release
   build, one core of a 2-vCPU host): up to 10.1 s each, 207 s for all
   48. The pins below cover the widest in this file. *)
let spec_slow (s : Shape.t) =
  match (s.Shape.threads, s.Shape.events, s.Shape.locs) with
  | 2, 6, 3 | 3, 5, 3 | 3, 6, (2 | 3) -> true
  | 2, 5, 3 | 2, 6, 2 | 3, 4, 3 | 3, 5, 2 -> s.Shape.rmw
  | _ -> false

let lines sks = List.map Generate.to_string sks

let test_enumerate_matches_spec () =
  let checked = ref 0 in
  List.iter
    (fun shape ->
      if not (spec_slow shape) then begin
        incr checked;
        let what = Format.asprintf "%a" Shape.pp shape in
        let got, raw = Generate.enumerate shape and want, want_raw = Spec.enumerate shape in
        check_int (what ^ " raw") want_raw raw;
        Alcotest.(check (list string)) (what ^ " skeletons") (lines want) (lines got)
      end)
    all_shapes;
  check_int "shapes checked" 168 !checked

let test_enumerate_refuses_unpackable () =
  List.iter
    (fun shape ->
      match Generate.enumerate shape with
      | _ -> Alcotest.failf "%s enumerated" (Format.asprintf "%a" Shape.pp shape)
      | exception Invalid_argument _ -> ())
    [
      { Shape.default with Shape.locs = 5 };
      { Shape.default with Shape.threads = 3; events = 13 };
    ]

let arbitrary_program =
  let open QCheck.Gen in
  let sym =
    frequency
      [
        (1, return Generate.Fn);
        (1, return Generate.Fw);
        (3, map (fun l -> Generate.Ld l) (int_bound 4));
        (3, map (fun l -> Generate.St l) (int_bound 4));
        (2, map (fun l -> Generate.Um l) (int_bound 4));
      ]
  in
  QCheck.make
    ~print:(fun t -> Generate.to_string t)
    (map Array.of_list (list_size (int_bound 4) (list_size (int_bound 4) sym)))

let prop_canonical_matches_spec =
  QCheck.Test.make ~count:2000 ~name:"canonical agrees with the specification" arbitrary_program
    (fun threads -> Generate.canonical threads = Spec.canonical threads)

let digest_lines l = Digest.to_hex (Digest.string (String.concat "\n" l))

let shape_of ?(rmw = false) ?(fence = false) ?(wg_fence = false) spec =
  match Shape.of_spec ~rmw ~fence ~wg_fence spec with Ok s -> s | Error e -> failwith e

(* Pinned on the list builder before the packed enumerator replaced it:
   canonical and raw counts, and an MD5 of the [to_string] lines in
   order. *)
let test_enumerate_pins () =
  List.iter
    (fun (shape, canonical, raw, digest) ->
      let what = Format.asprintf "%a" Shape.pp shape in
      let sks, got_raw = Generate.enumerate shape in
      check_int (what ^ " canonical") canonical (List.length sks);
      check_int (what ^ " raw") raw got_raw;
      check_string (what ^ " digest") digest (digest_lines (lines sks)))
    [
      (shape_of ~fence:true ~wg_fence:true "2x5x2", 1647, 6568, "76b519420ce3289d1fc618e713b73208");
      ( shape_of ~rmw:true ~fence:true ~wg_fence:true "3x5x3",
        33600,
        641190,
        "fa4832b1e39d1edd0d9621216385d100" );
    ]

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
    (Pool.with_pool ~domains:2 (fun pool ->
         Admit.generated ~model:Model.Sc_per_location ~pool Shape.default))

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
    Pool.with_pool ~domains:2 (fun pool ->
        Admit.operator_mutants ~cross_check:true ~pool ~ops:Mutator.all_ops parents)
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

(* A generated corpus is an ordinary campaign: through the schema plan
   and a store on two domains, the cold run equals the store-less one
   and the warm rerun is served entirely from the store, identically. *)
let test_corpus_campaign_cached () =
  let entries = Array.of_list (Corpus.generate small_meta).Corpus.entries in
  let n = Array.length entries in
  let device = Mcm_gpu.Device.make Mcm_gpu.Profile.nvidia in
  let env = Mcm_testenv.Params.scaled Mcm_testenv.Params.pte_baseline 0.02 in
  let request i =
    Request.make ~device ~env ~test:entries.(i).Admit.test ~iterations:2 ~seed:20230325 ()
  in
  let grid = Grid.make Runner.Rate ~n ~request in
  let dir = Filename.temp_file "mcm_corpus_store" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () ->
      let sweep () =
        Store.with_store dir (fun store ->
            Grid.run_stats (Request.context ~domains:2 ~store ~plan:Request.Schema ()) grid)
      in
      let cold, _ = sweep () in
      let warm, stats = sweep () in
      check_bool "cold run equals the store-less run" true (cold = Grid.run Request.serial grid);
      check_bool "warm rerun equals the cold run" true (warm = cold);
      match stats with
      | Some st ->
          check_int "every warm cell a hit" n st.Sched.hits;
          check_int "no warm misses" 0 st.Sched.misses
      | None -> Alcotest.fail "no planner stats from a store-backed run")

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
(* What generation produces, pinned                                     *)

(* Content keys pinned on the list builder and the per-edge relation
   construction, before the packed enumerator and the one-matrix
   relations replaced them: two shards of the scoped 2x5x2 corpus (the
   corpus-e2e benchmark's shape) and the whole scoped 2x4x2 corpus under
   cross-check. *)
let test_corpus_key_pins () =
  let fw = shape_of ~fence:true ~wg_fence:true in
  List.iter
    (fun (what, meta, cross_check, key) ->
      let c = Corpus.generate ~cross_check meta in
      check_int (what ^ " disagreements") 0 c.Corpus.stats.Admit.disagreements;
      check_string (what ^ " key") key (Key.to_hex (Corpus.key c)))
    [
      ( "2x5x2 shard 0/48",
        { Corpus.default_meta with Corpus.shape = fw "2x5x2"; shard = Some (0, 48) },
        false,
        "e011f1612a70907e" );
      ( "2x5x2 shard 17/48",
        { Corpus.default_meta with Corpus.shape = fw "2x5x2"; shard = Some (17, 48) },
        false,
        "1eee170e16817ed6" );
      ("2x4x2", { Corpus.default_meta with Corpus.shape = fw "2x4x2" }, true, "d9ed50f88a52567e");
    ]

(* The paper suite, pinned the same way: an MD5 over one line per entry
   in generation order, "name TAB role TAB target_desc TAB source". *)
let test_suite_pin () =
  match Suite.generate () with
  | Error e -> Alcotest.failf "suite: %s" e
  | Ok entries ->
      let line (e : Suite.entry) =
        String.concat "\t"
          [
            e.Suite.test.Litmus.name;
            (match e.Suite.role with
            | Suite.Conformance -> "conformance"
            | Suite.Mutant_of p -> "mutant-of " ^ p);
            e.Suite.test.Litmus.target_desc;
            Parse.to_source e.Suite.test;
          ]
      in
      check_int "entries" 52 (List.length entries);
      check_string "digest" "6c1d032ce71342b3ff3c8b4508357bb9"
        (digest_lines (List.map line entries))

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
          Alcotest.test_case "matches the specification" `Quick test_enumerate_matches_spec;
          Alcotest.test_case "refuses unpackable shapes" `Quick test_enumerate_refuses_unpackable;
          QCheck_alcotest.to_alcotest prop_canonical_matches_spec;
          Alcotest.test_case "pinned enumerations" `Quick test_enumerate_pins;
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
          Alcotest.test_case "campaign through a store" `Quick test_corpus_campaign_cached;
        ] );
      ( "pins",
        [
          Alcotest.test_case "corpus keys" `Quick test_corpus_key_pins;
          Alcotest.test_case "paper suite" `Quick test_suite_pin;
        ] );
    ]

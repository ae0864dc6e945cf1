(* First-class memory scopes, end to end.

   - MP/LB/SB at workgroup vs device scope certified through BOTH
     oracle engines: device-scope fences synchronize under every
     layout; workgroup-scope fences synchronize only intra-workgroup,
     so the narrowed tests flip from conformance to weak mutant when
     the threads land in distinct workgroups.
   - Both oracle engines compute the same scoped allowed-sets and
     verdicts under both layouts.
   - The Scope_dropped bug injection is caught by device-scope mutants
     run inter-workgroup and is invisible intra-workgroup, instance by
     instance and through campaigns of both execution engines.
   - interpreter ≡ kernel over random SCOPED programs: bit-identical
     outcomes and PRNG draw consumption.
   - Fsn (fence scope narrowing) mutates with stable positional labels
     and admits through the oracle gate under cross-check.
   - --shard slices of candidate enumeration are deterministic,
     pairwise disjoint and union-complete.
   - Scoped programs survive print ∘ parse with their scopes. *)

module Prng = Mcm_util.Prng
module Scope = Mcm_memmodel.Scope
module Model = Mcm_memmodel.Model
module Litmus = Mcm_litmus.Litmus
module Instr = Mcm_litmus.Instr
module Parse = Mcm_litmus.Parse
module Library = Mcm_litmus.Library
module Mutator = Mcm_core.Mutator
module Profile = Mcm_gpu.Profile
module Bug = Mcm_gpu.Bug
module Instance = Mcm_gpu.Instance
module Kernel = Mcm_gpu.Kernel
module Engine = Mcm_oracle.Engine
module Certify = Mcm_oracle.Certify
module Outcome = Mcm_oracle.Outcome
module Shape = Mcm_corpus.Shape
module Admit = Mcm_corpus.Admit
module Corpus = Mcm_corpus.Corpus
module Device = Mcm_gpu.Device
module Params = Mcm_testenv.Params
module Request = Mcm_testenv.Request
module Runner = Mcm_testenv.Runner

let check = Alcotest.(check bool)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Narrow every fence of a test to workgroup scope. *)
let narrowed t =
  {
    t with
    Litmus.name = t.Litmus.name ^ "-wg";
    threads =
      Array.map
        (List.map (fun i ->
             if Instr.is_fence i then Instr.with_scope Scope.Workgroup i else i))
        t.Litmus.threads;
  }

(* ------------------------------------------------------------------ *)
(* MP/LB/SB at wg vs device scope, through both oracle engines.        *)

let scoped_suite = [ Library.mp_relacq; Library.lb_relacq; Library.sb_relacq_rmw ]

let test_certified_at_both_scopes () =
  List.iter
    (fun engine ->
      let en = Engine.name engine in
      List.iter
        (fun t ->
          (* Device-scope fences reach every workgroup: the target stays
             forbidden under both layouts. *)
          List.iter
            (fun layout ->
              let v = Certify.conformance ~engine ~layout t in
              check
                (Printf.sprintf "%s/%s device-scope conformance (%s)" en t.Litmus.name
                   (Scope.layout_name layout))
                true v.Certify.ok)
            [ Scope.Inter; Scope.Intra ];
          let wg = narrowed t in
          (* Workgroup-scope fences still synchronize when all threads
             share workgroup 0... *)
          let intra = Certify.conformance ~engine ~layout:Scope.Intra wg in
          check (Printf.sprintf "%s/%s wg-scope conformance intra" en wg.Litmus.name) true
            intra.Certify.ok;
          (* ...but not across workgroups: the target becomes reachable
             weak behaviour, i.e. a certified mutant. *)
          let inter = Certify.conformance ~engine ~layout:Scope.Inter wg in
          check (Printf.sprintf "%s/%s wg-scope conformance inter fails" en wg.Litmus.name)
            false inter.Certify.ok;
          let m = Certify.mutant ~engine ~layout:Scope.Inter wg in
          check (Printf.sprintf "%s/%s wg-scope mutant inter" en wg.Litmus.name) true
            m.Certify.ok)
        scoped_suite)
    Engine.all

(* The scoped sw gate is implemented twice, as an enumeration filter
   and in constraint propagation: both engines give the same allowed
   set and the same verdicts for every test and layout. *)
let test_engines_agree_on_scoped_verdicts () =
  List.iter
    (fun t ->
      List.iter
        (fun layout ->
          let allowed engine =
            Outcome.elements (Outcome.allowed ~engine ~layout t.Litmus.model t)
          in
          check
            (Printf.sprintf "engines agree on the allowed set of %s (%s)" t.Litmus.name
               (Scope.layout_name layout))
            true
            (allowed Engine.Enumerate = allowed Engine.Propagate);
          List.iter
            (fun certify ->
              let ve = certify ~engine:Engine.Enumerate ~layout t in
              let vp = certify ~engine:Engine.Propagate ~layout t in
              check
                (Printf.sprintf "engines agree on %s (%s)" t.Litmus.name
                   (Scope.layout_name layout))
                true
                (ve.Certify.ok = vp.Certify.ok && ve.Certify.detail = vp.Certify.detail))
            [
              (fun ~engine ~layout t -> Certify.conformance ~engine ~layout t);
              (fun ~engine ~layout t -> Certify.mutant ~engine ~layout t);
            ])
        [ Scope.Inter; Scope.Intra ])
    (scoped_suite @ List.map narrowed scoped_suite)

(* The all-device-scope corner IS the pre-scope semantics: layout must
   not matter when no instruction is workgroup-scoped. *)
let test_device_scope_layout_invariant () =
  List.iter
    (fun engine ->
      List.iter
        (fun t ->
          let inter = Outcome.elements (Outcome.allowed ~engine ~layout:Scope.Inter t.Litmus.model t) in
          let intra = Outcome.elements (Outcome.allowed ~engine ~layout:Scope.Intra t.Litmus.model t) in
          let default = Outcome.elements (Outcome.allowed ~engine t.Litmus.model t) in
          check (Printf.sprintf "%s layout-invariant" t.Litmus.name) true
            (inter = intra && inter = default))
        (Library.all |> List.filter (fun t -> Litmus.nthreads t <= 3)))
    Engine.all

(* ------------------------------------------------------------------ *)
(* Scope_dropped: caught inter-workgroup, invisible intra-workgroup.   *)

let wild =
  {
    Instance.instr_latency_ns = 2.;
    issue_jitter = 0.5;
    p_ooo = 0.35;
    vis_delay_mean_ns = 40.;
    p_stale = 0.35;
    stale_mean_ns = 40.;
  }

let kills ~layout ~bugs test n =
  let g = Prng.create 7 in
  let count = ref 0 in
  for _ = 1 to n do
    let starts = Array.init (Litmus.nthreads test) (fun _ -> Prng.float g 30.) in
    let o = Instance.run ~layout ~prng:(Prng.split g) ~weak:wild ~bugs ~test ~starts () in
    if test.Litmus.target o then incr count
  done;
  !count

let test_scope_drop_visibility () =
  let bug = Bug.effect_of [ Bug.Scope_dropped 1.0 ] in
  List.iter
    (fun t ->
      Alcotest.(check int)
        (Printf.sprintf "%s correct inter-workgroup without the bug" t.Litmus.name)
        0
        (kills ~layout:Scope.Inter ~bugs:Bug.none t 3000);
      (* Demoted device fences stop synchronizing across workgroups:
         the device-scope mutant catches the bug. *)
      check
        (Printf.sprintf "%s catches Scope_dropped inter-workgroup" t.Litmus.name)
        true
        (kills ~layout:Scope.Inter ~bugs:bug t 3000 > 0);
      (* All threads in one workgroup: workgroup scope is enough, the
         demotion changes nothing — the bug is invisible. *)
      Alcotest.(check int)
        (Printf.sprintf "%s blind to Scope_dropped intra-workgroup" t.Litmus.name)
        0
        (kills ~layout:Scope.Intra ~bugs:bug t 3000))
    (* MP and SB: their weak behaviours come from store-visibility
       delay, which a (de-scoped, hence inactive) fence stops capping.
       LB's weakness is adjacent out-of-order issue, which a fence
       blocks positionally whether or not it synchronizes — so LB
       cannot see this bug operationally. *)
    [ Library.mp_relacq; Library.sb_relacq_rmw ]

(* The same through campaigns on two domains: a device-scope
   conformance test kills a Scope_dropped device inter-workgroup and
   sees nothing intra-workgroup, a clean device never fails it, and the
   interpreter and kernel campaigns agree. *)
let test_scope_drop_campaigns () =
  let bugged = Device.make ~bugs:[ Bug.Scope_dropped 1.0 ] Profile.nvidia in
  let clean = Device.make Profile.nvidia in
  let inter = Params.scaled Params.pte_baseline 0.05 in
  let intra = Params.with_scope inter Params.Intra_workgroup in
  let kills engine =
    List.map
      (fun (device, env) ->
        (Runner.exec Runner.Rate
           (Request.make ~engine ~device ~env ~test:Library.mp_relacq ~iterations:4
              ~seed:20230325 ())
           (Request.context ~domains:2 ()))
          .Runner.kills)
      [ (bugged, inter); (bugged, intra); (clean, inter) ]
  in
  let interpreter = kills Runner.Interpreter in
  check "kernel campaigns equal the interpreter's" true (kills Runner.Kernel = interpreter);
  match interpreter with
  | [ inter_bugged; intra_bugged; inter_clean ] ->
      check "bug caught inter-workgroup" true (inter_bugged > 0);
      Alcotest.(check int) "bug invisible intra-workgroup" 0 intra_bugged;
      Alcotest.(check int) "clean device never fails" 0 inter_clean
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* interpreter ≡ kernel ≡ schema over random scoped programs.          *)

let arbitrary_scoped_program =
  let open QCheck.Gen in
  let gen =
    let* nthreads = int_range 1 3 in
    let* nlocs = int_range 1 2 in
    let value_counter = ref 0 in
    let gen_instr tid_regs =
      let* choice = int_range 0 3 in
      let* loc = int_range 0 (nlocs - 1) in
      let* scope = oneofl [ Scope.Workgroup; Scope.Device ] in
      match choice with
      | 0 ->
          let reg = !tid_regs in
          incr tid_regs;
          return (Instr.load ~scope ~reg ~loc ())
      | 1 ->
          incr value_counter;
          return (Instr.store ~scope ~loc ~value:!value_counter ())
      | 2 ->
          let reg = !tid_regs in
          incr tid_regs;
          incr value_counter;
          return (Instr.rmw ~scope ~reg ~loc ~value:!value_counter ())
      | _ -> return (Instr.fence ~scope ())
    in
    let gen_thread =
      let* len = int_range 1 4 in
      let regs = ref 0 in
      let rec go n acc =
        if n = 0 then return (List.rev acc) else gen_instr regs >>= fun i -> go (n - 1) (i :: acc)
      in
      go len []
    in
    let rec threads n acc =
      if n = 0 then return (Array.of_list (List.rev acc))
      else gen_thread >>= fun t -> threads (n - 1) (t :: acc)
    in
    let* ts = threads nthreads [] in
    return
      {
        Litmus.name = "random-scoped";
        family = "random";
        model = Model.Relacq_sc_per_location;
        threads = ts;
        nlocs;
        target = (fun _ -> false);
        target_desc = "-";
      }
  in
  QCheck.make ~print:Litmus.to_string gen

let profiles = Array.of_list Profile.all

let random_config g =
  let p = profiles.(Prng.int g (Array.length profiles)) in
  let weak = Instance.effective_params p ~amplification:(Prng.float g 40.) in
  let bugs =
    match Prng.int g 3 with
    | 0 -> Bug.none
    | 1 -> Bug.effect_of [ Bug.Scope_dropped (Prng.float g 1.) ]
    | _ -> Bug.effect_of [ Bug.Fence_weakened (Prng.float g 1.); Bug.Scope_dropped (Prng.float g 1.) ]
  in
  let layout = if Prng.int g 2 = 0 then Scope.Inter else Scope.Intra in
  (weak, bugs, layout)

let prop_engines_bit_identical =
  QCheck.Test.make ~count:300 ~name:"interpreter == kernel on scoped programs"
    (QCheck.pair arbitrary_scoped_program QCheck.small_int)
    (fun (test, seed) ->
      QCheck.assume (Litmus.well_formed test = Ok ());
      let g = Prng.create seed in
      let weak, bugs, layout = random_config g in
      let kernel = Kernel.compile ~layout ~weak ~bugs ~test () in
      let ws = Kernel.workspace kernel in
      let ok = ref true in
      for _ = 1 to 20 do
        let starts = Array.init (Litmus.nthreads test) (fun _ -> Prng.float g 60.) in
        let g_int = Prng.of_int64 (Prng.state g) in
        let g_ker = Prng.of_int64 (Prng.state g) in
        ignore (Prng.next_int64 g);
        let o_int = Instance.run ~layout ~prng:g_int ~weak ~bugs ~test ~starts () in
        let o_ker = Kernel.run kernel ws ~prng:g_ker ~starts in
        if o_int <> o_ker then begin
          Printf.eprintf "interp/kernel mismatch (%s) on:\n%s\n%!"
            (Scope.layout_name layout) (Litmus.to_string test);
          ok := false
        end;
        if Prng.state g_int <> Prng.state g_ker then begin
          Printf.eprintf "draw-count mismatch on:\n%s\n%!" (Litmus.to_string test);
          ok := false
        end
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Fsn: scope narrowing with stable positional labels, through          *)
(* oracle admission.                                                    *)

let test_fsn_labels () =
  let variants = Mutator.apply_op Mutator.Fsn Library.mp_relacq.Litmus.threads in
  Alcotest.(check (list string))
    "one variant per device-scope fence, positional labels"
    [ "t0.1"; "t1.1" ] (List.map fst variants);
  List.iter
    (fun (label, threads) ->
      let narrowed_fences =
        Array.to_list threads
        |> List.concat_map (List.filter (fun i -> Instr.is_fence i && Instr.scope i = Scope.Workgroup))
      in
      check (label ^ " narrows exactly one fence") true (List.length narrowed_fences = 1))
    variants;
  (* Workgroup-scope fences are already narrow: nothing to do. *)
  Alcotest.(check int)
    "fixpoint on fully narrowed test" 0
    (List.length (Mutator.apply_op Mutator.Fsn (narrowed Library.mp_relacq).Litmus.threads))

let test_fsn_admission () =
  let entries, stats =
    Admit.operator_mutants ~cross_check:true ~ops:[ Mutator.Fsn ] [ Library.mp_relacq ]
  in
  Alcotest.(check int) "no engine disagreements" 0 stats.Admit.disagreements;
  Alcotest.(check int) "no uncertified" 0 stats.Admit.uncertified;
  check "narrowed variants admitted" true (List.length entries > 0);
  List.iter
    (fun (e : Admit.entry) ->
      check "entry is a weak mutant" true (e.Admit.polarity = Admit.Mutant_weak);
      check "entry records the operator" true (e.Admit.op = Some "fsn");
      check "entry name carries the positional label" true
        (contains ~needle:"fsn-t" e.Admit.test.Litmus.name);
      check "skeleton carries a workgroup fence" true (contains ~needle:"Fw" e.Admit.skeleton))
    entries

(* ------------------------------------------------------------------ *)
(* Sharding: deterministic, disjoint, union-complete.                   *)

let shard_shape =
  { Shape.threads = 2; events = 4; locs = 2; rmw = false; fence = true; wg_fence = true }

let entry_id (e : Admit.entry) =
  (e.Admit.skeleton, Admit.polarity_name e.Admit.polarity, e.Admit.test.Litmus.name)

let test_shard_partition () =
  let model = Model.Sc_per_location in
  let full, _ = Admit.generated ~model shard_shape in
  let n = 3 in
  let shards = List.init n (fun k -> fst (Admit.generated ~shard:(k, n) ~model shard_shape)) in
  (* Deterministic: a rerun of a shard is identical. *)
  let again = fst (Admit.generated ~shard:(1, n) ~model shard_shape) in
  check "shard rerun identical" true
    (List.map entry_id (List.nth shards 1) = List.map entry_id again);
  (* Disjoint: no admitted entry appears in two shards. *)
  let ids = List.map (fun es -> List.map entry_id es) shards in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then
            check
              (Printf.sprintf "shards %d and %d disjoint" i j)
              true
              (not (List.exists (fun x -> List.mem x b) a)))
        ids)
    ids;
  (* Union-complete: the shards together admit exactly the full run. *)
  let union = List.sort compare (List.concat ids) in
  let full_ids = List.sort compare (List.map entry_id full) in
  check "shard union equals full run" true (union = full_ids)

let test_shard_validation () =
  let model = Model.Sc_per_location in
  List.iter
    (fun shard ->
      Alcotest.check_raises "bad shard rejected"
        (Invalid_argument
           (Printf.sprintf "Admit: bad shard %d/%d (want 0 <= index < count)" (fst shard)
              (snd shard)))
        (fun () -> ignore (Admit.generated ~shard ~model shard_shape)))
    [ (3, 3); (-1, 2); (0, 0) ]

let test_shard_in_corpus_meta () =
  let meta =
    {
      Corpus.default_meta with
      Corpus.shape = shard_shape;
      model = Model.Sc_per_location;
      ops = [];
      shard = Some (1, 3);
    }
  in
  let c = Corpus.generate meta in
  let s = Corpus.to_string c in
  check "serialized meta records the shard" true
    (contains ~needle:"\"shard\":{\"index\":1,\"of\":3}" s);
  (match Corpus.of_string s with
  | Ok c' ->
      check "shard survives the round-trip" true (c'.Corpus.meta.Corpus.shard = Some (1, 3));
      check "round-trip reproduces the bytes" true (Corpus.to_string c' = s)
  | Error e -> Alcotest.fail e);
  (* The shard is part of the content key: a shard's corpus can never
     masquerade as the full corpus. *)
  let full = Corpus.generate { meta with Corpus.shard = None } in
  check "sharded and full corpora have distinct keys" true (Corpus.key c <> Corpus.key full)

let test_pre_scope_corpus_refused () =
  let meta =
    { Corpus.default_meta with Corpus.shape = shard_shape; model = Model.Sc_per_location; ops = [] }
  in
  let s = Corpus.to_string (Corpus.generate meta) in
  let needle = "\"formatVersion\":2" in
  check "format version serialized" true (contains ~needle s);
  let i =
    let rec find i = if String.sub s i (String.length needle) = needle then i else find (i + 1) in
    find 0
  in
  let tampered =
    String.sub s 0 i ^ "\"formatVersion\":1"
    ^ String.sub s (i + String.length needle) (String.length s - i - String.length needle)
  in
  match Corpus.of_string tampered with
  | Ok _ -> Alcotest.fail "pre-scope formatVersion accepted"
  | Error e ->
      check "error names both format versions" true
        (contains ~needle:"formatVersion 1" e && contains ~needle:"formatVersion 2" e)

(* ------------------------------------------------------------------ *)
(* Scoped print ∘ parse round-trips.                                    *)

let test_scoped_round_trip () =
  List.iter
    (fun t ->
      let src = Parse.to_source t in
      match Parse.parse src with
      | Error e -> Alcotest.fail (t.Litmus.name ^ ": " ^ e)
      | Ok back ->
          (* Structural thread equality covers the scopes: Instr.t
             carries the scope, so a dropped ` wg` token would differ. *)
          check (t.Litmus.name ^ " threads survive print/parse") true
            (back.Litmus.threads = t.Litmus.threads))
    (scoped_suite @ List.map narrowed scoped_suite)

let () =
  Alcotest.run "scope"
    [
      ( "oracle",
        [
          Alcotest.test_case "MP/LB/SB at wg vs device scope" `Slow test_certified_at_both_scopes;
          Alcotest.test_case "engines agree on scoped verdicts" `Slow
            test_engines_agree_on_scoped_verdicts;
          Alcotest.test_case "device scope is layout-invariant" `Slow
            test_device_scope_layout_invariant;
        ] );
      ( "bug",
        [
          Alcotest.test_case "Scope_dropped visibility" `Slow test_scope_drop_visibility;
          Alcotest.test_case "Scope_dropped campaigns" `Quick test_scope_drop_campaigns;
        ] );
      ( "engines",
        [ QCheck_alcotest.to_alcotest ~long:true prop_engines_bit_identical ] );
      ( "mutator",
        [
          Alcotest.test_case "fsn labels" `Quick test_fsn_labels;
          Alcotest.test_case "fsn admission" `Slow test_fsn_admission;
        ] );
      ( "shard",
        [
          Alcotest.test_case "partition" `Slow test_shard_partition;
          Alcotest.test_case "validation" `Quick test_shard_validation;
          Alcotest.test_case "corpus meta" `Slow test_shard_in_corpus_meta;
          Alcotest.test_case "pre-scope corpus refused" `Slow test_pre_scope_corpus_refused;
        ] );
      ( "syntax",
        [ Alcotest.test_case "scoped round trip" `Quick test_scoped_round_trip ] );
    ]

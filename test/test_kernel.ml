(* Differential tests for the compiled instance kernel: Kernel.run must
   be bit-identical to Instance.run — same outcomes AND same PRNG draw
   consumption — across random programs, device profiles, environments
   and seeds; compile_cached's shared images and adopted workspaces
   must be indistinguishable from compile; and campaigns through the
   kernel engine must reproduce the interpreter engine exactly at every
   domain count. In the release profile, the kernel campaign and the
   direct run_next loop must also stay within their allocation
   budgets. *)

module Prng = Mcm_util.Prng
module Litmus = Mcm_litmus.Litmus
module Instr = Mcm_litmus.Instr
module Library = Mcm_litmus.Library
module Profile = Mcm_gpu.Profile
module Bug = Mcm_gpu.Bug
module Device = Mcm_gpu.Device
module Instance = Mcm_gpu.Instance
module Kernel = Mcm_gpu.Kernel
module Params = Mcm_testenv.Params
module Request = Mcm_testenv.Request
module Runner = Mcm_testenv.Runner
module Enumerate = Mcm_litmus.Enumerate
module Parse = Mcm_litmus.Parse
module Classify = Mcm_litmus.Classify
module Suite = Mcm_core.Suite
module Corpus = Mcm_corpus.Corpus
module Pool = Mcm_util.Pool

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Random inputs                                                       *)

(* Random well-formed litmus programs, a little wider than the
   simulator's own generator: up to 4 threads, 4 instructions, 3
   locations. *)
let arbitrary_program =
  let open QCheck.Gen in
  let gen =
    let* nthreads = int_range 1 4 in
    let* nlocs = int_range 1 3 in
    let value_counter = ref 0 in
    let gen_instr tid_regs =
      let* choice = int_range 0 3 in
      let* loc = int_range 0 (nlocs - 1) in
      match choice with
      | 0 ->
          let reg = !tid_regs in
          incr tid_regs;
          return ((Instr.load ~reg ~loc ()))
      | 1 ->
          incr value_counter;
          return ((Instr.store ~loc ~value:!value_counter ()))
      | 2 ->
          let reg = !tid_regs in
          incr tid_regs;
          incr value_counter;
          return ((Instr.rmw ~reg ~loc ~value:!value_counter ()))
      | _ -> return (Instr.fence ())
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
        Litmus.name = "random";
        family = "random";
        model = Mcm_memmodel.Model.Relacq_sc_per_location;
        threads = ts;
        nlocs;
        target = (fun _ -> false);
        target_desc = "-";
      }
  in
  QCheck.make ~print:Litmus.to_string gen

let profiles = Array.of_list Profile.all

(* Derive weak params, bug effects and starts from one auxiliary
   generator so a single (program, seed) pair covers the whole input
   space. *)
let random_config g =
  let p = profiles.(Prng.int g (Array.length profiles)) in
  let weak = Instance.effective_params p ~amplification:(Prng.float g 40.) in
  let bugs =
    match Prng.int g 4 with
    | 0 -> Bug.none
    | 1 -> Bug.effect_of [ Bug.Corr_reorder (Prng.float g 1.) ]
    | 2 -> Bug.effect_of [ Bug.Fence_weakened (Prng.float g 1.) ]
    | _ -> Bug.effect_of [ Bug.Coherence_alias (Prng.float g 1.) ]
  in
  (weak, bugs)

(* ------------------------------------------------------------------ *)
(* Engine-level differential property                                  *)

let prop_kernel_bit_identical =
  QCheck.Test.make ~count:400 ~name:"kernel bit-identical to interpreter"
    (QCheck.pair arbitrary_program QCheck.small_int)
    (fun (test, seed) ->
      QCheck.assume (Litmus.well_formed test = Ok ());
      let g = Prng.create seed in
      let weak, bugs = random_config g in
      let kernel = Kernel.compile ~weak ~bugs ~test () in
      let ws = Kernel.workspace kernel in
      let ok = ref true in
      for _ = 1 to 30 do
        let starts = Array.init (Litmus.nthreads test) (fun _ -> Prng.float g 60.) in
        let g_int = Prng.of_int64 (Prng.state g) in
        let g_ker = Prng.of_int64 (Prng.state g) in
        ignore (Prng.next_int64 g);
        let o_int = Instance.run ~prng:g_int ~weak ~bugs ~test ~starts () in
        let o_ker = Kernel.run kernel ws ~prng:g_ker ~starts in
        if o_int <> o_ker then begin
          Printf.eprintf "outcome mismatch on:\n%s\ninterp: %s\nkernel: %s\n%!"
            (Litmus.to_string test) (Litmus.outcome_to_string o_int)
            (Litmus.outcome_to_string o_ker);
          ok := false
        end;
        if Prng.state g_int <> Prng.state g_ker then begin
          Printf.eprintf "draw-count mismatch on:\n%s\n%!" (Litmus.to_string test);
          ok := false
        end
      done;
      !ok)

let prop_run_next_matches_split =
  (* Kernel.set_parent + run_next must replicate the runner's
     per-instance [Instance.run ~prng:(Prng.split parent)] discipline. *)
  QCheck.Test.make ~count:150 ~name:"run_next matches split-per-instance"
    (QCheck.pair arbitrary_program QCheck.small_int)
    (fun (test, seed) ->
      QCheck.assume (Litmus.well_formed test = Ok ());
      let g = Prng.create seed in
      let weak, bugs = random_config g in
      let kernel = Kernel.compile ~weak ~bugs ~test () in
      let ws = Kernel.workspace kernel in
      (* A flat instance-major buffer, as the runner hands over: instance
         i's threads start at [i * nthreads]. *)
      let nthreads = Litmus.nthreads test in
      let flat = Array.init (10 * nthreads) (fun _ -> Prng.float g 60.) in
      let parent_int = Prng.of_int64 (Prng.state g) in
      let parent_ker = Prng.of_int64 (Prng.state g) in
      Kernel.set_parent ws parent_ker;
      let ok = ref true in
      for i = 0 to 9 do
        let off = i * nthreads in
        let starts = Array.sub flat off nthreads in
        let o_int = Instance.run ~prng:(Prng.split parent_int) ~weak ~bugs ~test ~starts () in
        let o_ker = Kernel.run_next kernel ws ~starts:flat ~off in
        if o_int <> o_ker then ok := false
      done;
      !ok)

let prop_compile_cached_identical =
  QCheck.Test.make ~count:150 ~name:"compile_cached bit-identical to compile, shares images"
    (QCheck.pair arbitrary_program QCheck.small_int)
    (fun (test, seed) ->
      QCheck.assume (Litmus.well_formed test = Ok ());
      let g = Prng.create seed in
      let weak1, bugs1 = random_config g in
      let weak2, bugs2 = random_config g in
      let fresh = Kernel.compile ~weak:weak1 ~bugs:bugs1 ~test () in
      let cached1 = Kernel.compile_cached ~weak:weak1 ~bugs:bugs1 ~test () in
      (* A second cell differing only in scalars must rebind onto the
         same image. *)
      let cached2 = Kernel.compile_cached ~weak:weak2 ~bugs:bugs2 ~test () in
      let shares = Kernel.image_id cached1 = Kernel.image_id cached2 in
      let ws_fresh = Kernel.workspace fresh in
      let ws_cached = Kernel.workspace cached1 in
      let ok = ref shares in
      for _ = 1 to 10 do
        let starts = Array.init (Litmus.nthreads test) (fun _ -> Prng.float g 60.) in
        let g_f = Prng.of_int64 (Prng.state g) in
        let g_c = Prng.of_int64 (Prng.state g) in
        ignore (Prng.next_int64 g);
        let o_f = Kernel.run fresh ws_fresh ~prng:g_f ~starts in
        let o_c = Kernel.run cached1 ws_cached ~prng:g_c ~starts in
        if not (o_f = o_c && Prng.state g_f = Prng.state g_c) then ok := false
      done;
      (* adopt: a workspace sized for one kernel of the image fits the
         other; running after adoption stays identical. *)
      Kernel.adopt ws_cached cached2;
      let k2 = Kernel.compile ~weak:weak2 ~bugs:bugs2 ~test () in
      let ws2 = Kernel.workspace k2 in
      for _ = 1 to 5 do
        let starts = Array.init (Litmus.nthreads test) (fun _ -> Prng.float g 60.) in
        let g_a = Prng.of_int64 (Prng.state g) in
        let g_b = Prng.of_int64 (Prng.state g) in
        ignore (Prng.next_int64 g);
        let o_a = Kernel.run cached2 ws_cached ~prng:g_a ~starts in
        let o_b = Kernel.run k2 ws2 ~prng:g_b ~starts in
        if not (o_a = o_b && Prng.state g_a = Prng.state g_b) then ok := false
      done;
      !ok)

let test_snapshot_is_deep_copy () =
  let test = Library.mp in
  let weak = Instance.effective_params Profile.nvidia ~amplification:1. in
  let kernel = Kernel.compile ~weak ~bugs:Bug.none ~test () in
  let ws = Kernel.workspace kernel in
  let o1 = Kernel.run kernel ws ~prng:(Prng.create 1) ~starts:[| 0.; 0. |] in
  let snap = Kernel.snapshot ws in
  check "snapshot equals live outcome" true (snap = o1);
  let o2 = Kernel.run kernel ws ~prng:(Prng.create 999) ~starts:[| 0.; 1000. |] in
  check "live outcome is reused storage" true (o1 == o2);
  check "snapshot unaffected by later runs" true (snap.Litmus.regs.(1) != o2.Litmus.regs.(1))

let test_workspace_ownership_checked () =
  let weak = Instance.effective_params Profile.amd ~amplification:0. in
  let k1 = Kernel.compile ~weak ~bugs:Bug.none ~test:Library.mp () in
  let k2 = Kernel.compile ~weak ~bugs:Bug.none ~test:Library.sb () in
  let ws2 = Kernel.workspace k2 in
  Alcotest.check_raises "foreign workspace rejected"
    (Invalid_argument "Kernel.run: workspace belongs to another kernel") (fun () ->
      ignore (Kernel.run k1 ws2 ~prng:(Prng.create 1) ~starts:[| 0.; 0. |]))

(* Two compiles of one test build two images, and a workspace sized
   for one may not be handed to the other. *)
let test_adopt_checks_image () =
  let weak = Instance.effective_params Profile.amd ~amplification:0. in
  let k1 = Kernel.compile ~weak ~bugs:Bug.none ~test:Library.mp () in
  let k2 = Kernel.compile ~weak ~bugs:Bug.none ~test:Library.mp () in
  Alcotest.check_raises "workspace from another image refused"
    (Invalid_argument "Kernel.adopt: workspace compiled from another image") (fun () ->
      Kernel.adopt (Kernel.workspace k1) k2)

let test_starts_length_checked () =
  let weak = Instance.effective_params Profile.amd ~amplification:0. in
  let k = Kernel.compile ~weak ~bugs:Bug.none ~test:Library.mp () in
  let ws = Kernel.workspace k in
  Alcotest.check_raises "wrong starts" (Invalid_argument "Kernel.run: starts length mismatch")
    (fun () -> ignore (Kernel.run k ws ~prng:(Prng.create 1) ~starts:[| 0. |]))

(* ------------------------------------------------------------------ *)
(* Campaign-level differential: both engines, several domain counts    *)

let campaign_result ~engine ~domains ~seed test =
  let device = Device.make ~bugs:[ Bug.Fence_weakened 0.3 ] Profile.nvidia in
  let env = Params.scaled Params.pte_baseline 0.05 in
  let r = Request.make ~engine ~device ~env ~test ~iterations:25 ~seed () in
  let ctx = Request.context ~domains () in
  (Runner.exec Runner.Histogram r ctx, Runner.exec Runner.Outcomes r ctx)

let prop_campaign_engines_agree =
  QCheck.Test.make ~count:10 ~name:"campaign identical across engines and domains"
    QCheck.small_int
    (fun case ->
      let tests = [| Library.mp; Library.mp_relacq; Library.sb; Library.corr; Library.mp_co |] in
      let test = tests.(case mod Array.length tests) in
      let seed = 4242 + case in
      let reference = campaign_result ~engine:Runner.Interpreter ~domains:1 ~seed test in
      List.for_all
        (fun domains ->
          campaign_result ~engine:Runner.Interpreter ~domains ~seed test = reference
          && campaign_result ~engine:Runner.Kernel ~domains ~seed test = reference)
        [ 1; 2; 4; 8 ])

(* ------------------------------------------------------------------ *)
(* Campaigns over real targets: the kernel arm answers the target from
   its per-image verdict table, the interpreter arm calls the closure. *)

let cells ~engine ~ctx ~device ~env ~seed test =
  let r = Request.make ~engine ~device ~env ~test ~iterations:6 ~seed () in
  ( Runner.exec Runner.Rate r ctx,
    Runner.exec Runner.Histogram r ctx,
    Runner.exec Runner.Outcomes r ctx )

(* The kernel engine agrees with the serial interpreter on each test at
   one and two domains under both plans. The two-domain contexts borrow
   one pool, so its worker domains keep their workspaces, and verdict
   tables, from one test to the next. *)
let engines_agree ~device ~env ~seed tests =
  Pool.with_pool ~domains:2 (fun pool ->
      let contexts =
        List.concat_map
          (fun plan -> [ Request.context ~plan (); Request.context ~pool ~plan () ])
          [ Request.Per_cell; Request.Schema ]
      in
      List.for_all
        (fun test ->
          let reference =
            cells ~engine:Runner.Interpreter ~ctx:Request.serial ~device ~env ~seed test
          in
          List.for_all
            (fun ctx -> cells ~engine:Runner.Kernel ~ctx ~device ~env ~seed test = reference)
            contexts)
        tests)

(* Five workgroups: 1280 instances per iteration. *)
let small_env = Params.scaled Params.pte_baseline 0.005

let with_outcome_set (test : Litmus.t) ~name set =
  { test with Litmus.name; target = (fun o -> Litmus.outcome_mem o set) }

(* The target is a random subset of the program's candidate outcomes,
   used as generated, after a to_source/parse round trip, and
   complemented: the last runs the same program and codes with
   opposite verdicts right after the first two. *)
let prop_campaign_real_targets =
  QCheck.Test.make ~count:40 ~name:"campaign identical across engines on real targets"
    (QCheck.pair arbitrary_program QCheck.small_int)
    (fun (program, seed) ->
      QCheck.assume (Litmus.well_formed program = Ok ());
      QCheck.assume (Classify.work program <= 5_000);
      let g = Prng.create seed in
      let chosen, rest = List.partition (fun _ -> Prng.bool g) (Enumerate.outcomes program) in
      let test = with_outcome_set program ~name:"random-subset" chosen in
      let parsed =
        match Parse.parse (Parse.to_source test) with Ok t -> t | Error e -> failwith e
      in
      let complement = with_outcome_set program ~name:"random-complement" rest in
      let profile = profiles.(seed mod Array.length profiles) in
      let device = Device.make ~bugs:[ Bug.Fence_weakened 0.3 ] profile in
      engines_agree ~device ~env:small_env ~seed [ test; parsed; complement ])

(* ------------------------------------------------------------------ *)
(* Code-space coverage                                                 *)

let code_space test =
  Kernel.code_space
    (Kernel.compile ~weak:(Instance.effective_params Profile.nvidia ~amplification:1.)
       ~bugs:Bug.none ~test ())

let corpus_tests meta =
  List.map (fun (e : Mcm_corpus.Admit.entry) -> e.Mcm_corpus.Admit.test)
    (Corpus.generate meta).Corpus.entries

(* Every test the benchmarks and the paper's experiments run stays on
   the table path. *)
let test_code_space_covers_repository () =
  let shard =
    match Mcm_corpus.Shape.of_spec ~fence:true ~wg_fence:true "2x5x2" with
    | Ok shape -> { Corpus.default_meta with Corpus.shape; shard = Some (0, 48) }
    | Error e -> failwith e
  in
  let groups =
    [
      ("library", Library.all);
      ("suite", List.map (fun (e : Suite.entry) -> e.Suite.test) (Suite.all ()));
      ("2x4x2 corpus", corpus_tests Corpus.default_meta);
      ("2x5x2 fence shard", corpus_tests shard);
    ]
  in
  List.iter
    (fun (group, tests) ->
      check (group ^ " is not empty") true (tests <> []);
      List.iter
        (fun (t : Litmus.t) ->
          if code_space t = None then
            Alcotest.failf "%s (%s): no verdict table" t.Litmus.name group)
        tests)
    groups

(* Nine locations written once each and eight of them read: 2^8 read
   digits x 2^9 final digits = 2^17 codes, above the cap, over only 256
   candidate executions, so the histogram's classifier stays cheap. *)
let above_cap_source =
  let locs = [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h"; "i" ] in
  String.concat "\n"
    ([ "test above-cap"; "model sc-per-loc"; "thread P0" ]
    @ List.map (fun l -> "  store " ^ l ^ " 1") locs
    @ [ "thread P1" ]
    @ List.filteri (fun i _ -> i < 8)
        (List.mapi (fun i l -> Printf.sprintf "  r%d = load %s" i l) locs)
    @ [ "target P1:r0 == 1 && P1:r7 == 0"; "" ])

let test_above_cap_falls_back () =
  let test = match Parse.parse above_cap_source with Ok t -> t | Error e -> failwith e in
  check "above the cap" true (code_space test = None);
  let device = Device.make Profile.nvidia in
  let env = small_env in
  let r, _, _ = cells ~engine:Runner.Kernel ~ctx:Request.serial ~device ~env ~seed:7 test in
  check "the target is observed" true (r.Runner.kills > 0);
  check "engines agree" true (engines_agree ~device ~env ~seed:7 [ test ])

(* A register written twice holds whichever read executes last, which
   the digits do not fix: no table. CoRR's reader with both loads into
   r0. *)
let test_rewritten_register_uncoded () =
  let reader regs =
    {
      Library.corr with
      Litmus.threads =
        [|
          List.map (fun reg -> Instr.load ~reg ~loc:0 ()) regs; [ Instr.store ~loc:0 ~value:1 () ];
        |];
    }
  in
  check "r0 written twice: uncoded" true (code_space (reader [ 0; 0 ]) = None);
  check "r0 then r1: coded" true (code_space (reader [ 0; 1 ]) = Some 8)

(* ------------------------------------------------------------------ *)
(* Allocation budgets (release profile)                                *)

(* The dev profile compiles with -opaque, which keeps exec_core and the
   Prng.Raw draws from inlining across modules, so each draw returns a
   boxed float. Both budgets are release-profile properties; in any
   other profile these cases skip. *)
let release_only () = if Build_profile.name <> "release" then Alcotest.skip ()

let nvidia_mp_relacq_m3 () =
  let device = Device.make Profile.nvidia in
  let test = (Option.get (Suite.find "MP-relacq-m3")).Suite.test in
  (device, test, Params.scaled Params.pte_baseline 0.02)

(* A Histogram campaign on one domain, role assignment to tally, costs
   at most one minor word per executed instance. The interpreter runs
   the same cell first, and the two engines must agree. *)
let test_campaign_allocation () =
  release_only ();
  let device, test, env = nvidia_mp_relacq_m3 () in
  let request engine = Request.make ~engine ~device ~env ~test ~iterations:4 ~seed:20230325 () in
  let ((r, _) as reference) =
    Runner.exec Runner.Histogram (request Runner.Interpreter) Request.serial
  in
  Gc.full_major ();
  let before = Gc.minor_words () in
  let kernel = Runner.exec Runner.Histogram (request Runner.Kernel) Request.serial in
  let words = Gc.minor_words () -. before in
  check "kernel campaign equals the interpreter's" true (kernel = reference);
  let per_instance = words /. float_of_int (max 1 r.Runner.instances) in
  if per_instance > 1. then
    Alcotest.failf "kernel campaign allocates %.3f minor words per instance (budget 1)"
      per_instance

(* After a warm-up, direct run_next calls allocate nothing per
   instance; the budget covers the counter's own boxes. *)
let test_run_next_allocation () =
  release_only ();
  let device, test, env = nvidia_mp_relacq_m3 () in
  let roles = Litmus.nthreads test in
  let weak =
    Instance.effective_params Profile.nvidia
      ~amplification:(Runner.amplification device env ~roles)
  in
  let kernel = Kernel.compile ~weak ~bugs:(Device.effect device) ~test () in
  let ws = Kernel.workspace kernel in
  Kernel.set_parent ws (Prng.create 20230325);
  let starts = Array.init roles (fun r -> 2. *. float_of_int r) in
  let loop () =
    for _ = 1 to 5_000 do
      ignore (Kernel.run_next kernel ws ~starts ~off:0)
    done
  in
  loop ();
  Gc.full_major ();
  let before = Gc.minor_words () in
  loop ();
  let words = Gc.minor_words () -. before in
  if words >= 256. then
    Alcotest.failf "5000 run_next calls allocated %.0f minor words (budget < 256)" words

let () =
  Alcotest.run "kernel"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_kernel_bit_identical; prop_run_next_matches_split; prop_compile_cached_identical ]
      );
      ( "workspace",
        [
          Alcotest.test_case "snapshot deep copy" `Quick test_snapshot_is_deep_copy;
          Alcotest.test_case "ownership checked" `Quick test_workspace_ownership_checked;
          Alcotest.test_case "adopt checks the image" `Quick test_adopt_checks_image;
          Alcotest.test_case "starts checked" `Quick test_starts_length_checked;
        ] );
      ( "campaign",
        List.map QCheck_alcotest.to_alcotest
          [ prop_campaign_engines_agree; prop_campaign_real_targets ] );
      ( "code space",
        [
          Alcotest.test_case "repository tests within the cap" `Quick
            test_code_space_covers_repository;
          Alcotest.test_case "above the cap falls back" `Quick test_above_cap_falls_back;
          Alcotest.test_case "rewritten register uncoded" `Quick test_rewritten_register_uncoded;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "campaign within 1 word per instance" `Quick
            test_campaign_allocation;
          Alcotest.test_case "run_next steady state" `Quick test_run_next_allocation;
        ] );
    ]

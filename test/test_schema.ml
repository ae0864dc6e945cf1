(* Differential tests for mutant schemata (Kernel.Schema) and the
   schema execution plan: running variant [v] through a shared schema
   image + pooled workspace must be bit-identical — same outcomes AND
   same PRNG draw consumption — to compiling variant [v] alone with
   Kernel.compile and running it in its own workspace; compile_cached
   must be indistinguishable from compile; and a campaign under
   [Request.Schema] must reproduce [Request.Per_cell] exactly for every
   collector and domain count. *)

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
module Runner = Mcm_testenv.Runner
module Request = Mcm_testenv.Request

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Random inputs (same program space as test_kernel.ml)                *)

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

(* A random schema column: 1–4 variants over 1–2 distinct programs
   (shared images + heterogeneous shapes in one schema), each with an
   independent weak/bugs configuration. *)
let column_arb = QCheck.(triple arbitrary_program arbitrary_program small_int)

let variants_of (t1, t2) g =
  let n = 1 + Prng.int g 4 in
  Array.init n (fun _ ->
      let test = if Prng.int g 2 = 0 then t1 else t2 in
      let weak, bugs = random_config g in
      (weak, bugs, test))

(* ------------------------------------------------------------------ *)
(* Schema vs per-variant compile                                       *)

let prop_schema_bit_identical =
  QCheck.Test.make ~count:300 ~name:"Schema.run bit-identical to per-variant compile"
    (QCheck.pair column_arb QCheck.small_int)
    (fun ((t1, t2, _), seed) ->
      QCheck.assume (Litmus.well_formed t1 = Ok () && Litmus.well_formed t2 = Ok ());
      let g = Prng.create seed in
      let variants = variants_of (t1, t2) g in
      let schema = Kernel.Schema.compile ~variants () in
      let sws = Kernel.Schema.workspace schema in
      let refs =
        Array.map
          (fun (weak, bugs, test) ->
            let k = Kernel.compile ~weak ~bugs ~test () in
            (k, Kernel.workspace k))
          variants
      in
      let ok = ref true in
      (* Interleave variants across runs so scratch left by one variant
         is live when the next executes — exactly the sharing the
         bit-identity argument has to survive. *)
      for run = 1 to 20 do
        let v = (run * 7) mod Array.length variants in
        let _, _, test = variants.(v) in
        let starts = Array.init (Litmus.nthreads test) (fun _ -> Prng.float g 60.) in
        let g_ref = Prng.of_int64 (Prng.state g) in
        let g_sch = Prng.of_int64 (Prng.state g) in
        ignore (Prng.next_int64 g);
        let k, kws = refs.(v) in
        let o_ref = Kernel.run k kws ~prng:g_ref ~starts in
        let o_sch = Kernel.Schema.run schema sws ~variant:v ~prng:g_sch ~starts in
        if o_ref <> o_sch then begin
          Printf.eprintf "schema outcome mismatch (variant %d) on:\n%s\nref: %s\nschema: %s\n%!" v
            (Litmus.to_string test) (Litmus.outcome_to_string o_ref)
            (Litmus.outcome_to_string o_sch);
          ok := false
        end;
        if Prng.state g_ref <> Prng.state g_sch then begin
          Printf.eprintf "schema draw-count mismatch (variant %d) on:\n%s\n%!" v
            (Litmus.to_string test);
          ok := false
        end;
        (* The snapshot must capture the variant's outcome, not a
           neighbour's shared scratch. *)
        if Kernel.Schema.snapshot sws ~variant:v <> o_sch then ok := false
      done;
      !ok)

let prop_schema_run_next_matches_split =
  (* Schema.set_parent + run_next shares ONE parent stream across all
     variants, as a runner interleaving variants within an iteration
     would: the reference is Instance.run ~prng:(Prng.split parent) in
     the same interleaved order. *)
  QCheck.Test.make ~count:150 ~name:"Schema.run_next matches split-per-instance"
    (QCheck.pair column_arb QCheck.small_int)
    (fun ((t1, t2, _), seed) ->
      QCheck.assume (Litmus.well_formed t1 = Ok () && Litmus.well_formed t2 = Ok ());
      let g = Prng.create seed in
      let variants = variants_of (t1, t2) g in
      let schema = Kernel.Schema.compile ~variants () in
      let sws = Kernel.Schema.workspace schema in
      let starts_of test = Array.init (Litmus.nthreads test) (fun _ -> Prng.float g 60.) in
      let starts = Array.map (fun (_, _, test) -> starts_of test) variants in
      let parent_ref = Prng.of_int64 (Prng.state g) in
      let parent_sch = Prng.of_int64 (Prng.state g) in
      Kernel.Schema.set_parent sws parent_sch;
      let ok = ref true in
      for run = 1 to 12 do
        let v = (run * 5) mod Array.length variants in
        let weak, bugs, test = variants.(v) in
        let o_ref =
          Instance.run ~prng:(Prng.split parent_ref) ~weak ~bugs ~test ~starts:starts.(v) ()
        in
        (* The slice sits at an offset inside a padded buffer, as in a
           runner's flat per-iteration starts. *)
        let off = 1 + run in
        let flat = Array.make (off + Array.length starts.(v) + 2) (-1.) in
        Array.blit starts.(v) 0 flat off (Array.length starts.(v));
        let o_sch = Kernel.Schema.run_next schema sws ~variant:v ~starts:flat ~off in
        if o_ref <> o_sch then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* compile_cached                                                      *)

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

(* ------------------------------------------------------------------ *)
(* Plan equivalence: Schema campaigns == Per_cell campaigns            *)

let plan_point_arb =
  (* (seed, iterations 0..3, domains 1|2|4) *)
  QCheck.(triple small_int (make (Gen.int_range 0 3)) (make (Gen.oneofl [ 1; 2; 4 ])))

let suite_test name = (Option.get (Mcm_core.Suite.find name)).Mcm_core.Suite.test

let random_request ~seed ~iterations =
  let g = Prng.create seed in
  let tests = [| "MP-CO-m"; "CoRR-m"; "MP-relacq-m3" |] in
  let test = suite_test tests.(Prng.int g (Array.length tests)) in
  let devices =
    [|
      Device.make Profile.nvidia;
      Device.make Profile.intel;
      Device.make ~bugs:[ Bug.Corr_reorder 0.5 ] Profile.amd;
    |]
  in
  let device = devices.(Prng.int g (Array.length devices)) in
  let env = Params.scaled (Params.random g Params.Parallel) 0.01 in
  Request.make ~device ~env ~test ~iterations ~seed ()

let prop_plan_equivalent =
  QCheck.Test.make ~count:40 ~name:"Schema plan == Per_cell plan (all collectors, domains)"
    plan_point_arb
    (fun (seed, iterations, domains) ->
      let r = random_request ~seed ~iterations in
      let agree : type a. a Runner.collect -> bool =
       fun c ->
        let per_cell = Runner.exec c r (Request.context ~plan:Request.Per_cell ~domains ()) in
        let schema = Runner.exec c r (Request.context ~plan:Request.Schema ~domains ()) in
        per_cell = schema
      in
      agree Runner.Rate && agree Runner.Histogram && agree Runner.Outcomes)

let test_plan_names_roundtrip () =
  List.iter
    (fun (name, plan) ->
      Alcotest.(check string) "plan name" name (Request.plan_name plan);
      check "plan_of_name inverts" true (Request.plan_of_name name = Some plan))
    Request.plans;
  check "unknown plan rejected" true (Request.plan_of_name "banana" = None)

let test_engine_counters_monotone () =
  let s0 = Runner.engine_stats () in
  (* A fresh, uniquely named program: earlier properties have warmed the
     domain-local caches for every suite test, and a cached image would
     (correctly) not count as a compile. *)
  let probe =
    {
      Litmus.name = "counters-probe";
      family = "probe";
      model = Mcm_memmodel.Model.Relacq_sc_per_location;
      threads = [| [ (Instr.store ~loc:0 ~value:1 ()) ]; [ (Instr.load ~reg:0 ~loc:0 ()) ] |];
      nlocs = 1;
      target = (fun _ -> false);
      target_desc = "-";
    }
  in
  let device = Device.make Profile.nvidia in
  let env = Params.scaled Params.pte_baseline 0.02 in
  let r = Request.make ~device ~env ~test:probe ~iterations:2 ~seed:99 () in
  ignore (Runner.exec Runner.Rate r (Request.context ~plan:Request.Schema ()));
  ignore (Runner.exec Runner.Rate r (Request.context ~plan:Request.Schema ()));
  let d = Runner.engine_stats_sub (Runner.engine_stats ()) s0 in
  check "compiles counted" true (d.Runner.kernels_compiled >= 1);
  (* The second identical cell must be answered by the prefab cache. *)
  check "reuse counted" true (d.Runner.schema_reuses >= 1);
  check "counters non-negative" true
    (d.Runner.workspaces_built >= 0 && d.Runner.workspace_reuses >= 0);
  ignore (Format.asprintf "%a" Runner.pp_engine_stats d)

(* ------------------------------------------------------------------ *)
(* API errors                                                          *)

let test_schema_errors () =
  Alcotest.check_raises "empty column rejected"
    (Invalid_argument "Kernel.Schema.compile: no variants") (fun () ->
      ignore (Kernel.Schema.compile ~variants:[||] ()));
  let weak = Instance.effective_params Profile.amd ~amplification:0. in
  let schema = Kernel.Schema.compile ~variants:[| (weak, Bug.none, Library.mp) |] () in
  let ws = Kernel.Schema.workspace schema in
  Alcotest.check_raises "variant out of range"
    (Invalid_argument "Kernel.Schema: variant out of range") (fun () ->
      ignore (Kernel.Schema.kernel schema 1));
  Alcotest.check_raises "run variant out of range"
    (Invalid_argument "Kernel.Schema: variant out of range") (fun () ->
      ignore
        (Kernel.Schema.run schema ws ~variant:1 ~prng:(Prng.create 1) ~starts:[| 0.; 0. |]));
  let other = Kernel.Schema.compile ~variants:[| (weak, Bug.none, Library.sb) |] () in
  let foreign = Kernel.Schema.workspace other in
  Alcotest.check_raises "foreign schema workspace rejected"
    (Invalid_argument "Kernel.run: workspace belongs to another kernel") (fun () ->
      ignore
        (Kernel.Schema.run schema foreign ~variant:0 ~prng:(Prng.create 1) ~starts:[| 0.; 0. |]));
  check "schema length" true (Kernel.Schema.length schema = 1);
  check "schema kernel exposes the variant's test" true
    (Kernel.test (Kernel.Schema.kernel schema 0) == Library.mp)

let () =
  Alcotest.run "schema"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_schema_bit_identical; prop_schema_run_next_matches_split;
            prop_compile_cached_identical ] );
      ( "plans",
        List.map QCheck_alcotest.to_alcotest [ prop_plan_equivalent ]
        @ [
            Alcotest.test_case "plan names" `Quick test_plan_names_roundtrip;
            Alcotest.test_case "engine counters" `Quick test_engine_counters_monotone;
          ] );
      ("api", [ Alcotest.test_case "schema errors" `Quick test_schema_errors ]);
    ]

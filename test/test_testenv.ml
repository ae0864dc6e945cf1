(* Tests for mcm_testenv: the 17 parameters and their derived views, the
   coprime thread↔instance assignment of Sec. 4.1, and the campaign
   runner (determinism, conformance safety, PTE vs SITE dynamics). *)

module Prng = Mcm_util.Prng
module Numbers = Mcm_util.Numbers
module Litmus = Mcm_litmus.Litmus
module Library = Mcm_litmus.Library
module Enumerate = Mcm_litmus.Enumerate
module Suite = Mcm_core.Suite
module Profile = Mcm_gpu.Profile
module Device = Mcm_gpu.Device
module Params = Mcm_testenv.Params
module Assignment = Mcm_testenv.Assignment
module Runner = Mcm_testenv.Runner
module Request = Mcm_testenv.Request

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -------------------------------------------------------------------- *)
(* Params                                                                 *)

let test_baselines_are_stress_free () =
  List.iter
    (fun env ->
      check "no stress" true (Params.stress_intensity env = 0.);
      check "no alignment" true (Params.alignment env = 0.);
      check "no extra instructions" true (Params.extra_instrs_per_thread env = 0))
    [ Params.site_baseline; Params.pte_baseline ]

let test_baseline_shapes () =
  check_int "SITE baseline wgs" 32 Params.site_baseline.Params.testing_workgroups;
  check_int "PTE baseline wgs" 1024 Params.pte_baseline.Params.testing_workgroups;
  check_int "PTE baseline tpw" 256 Params.pte_baseline.Params.threads_per_workgroup;
  check "modes" true
    (Params.site_baseline.Params.mode = Params.Single
    && Params.pte_baseline.Params.mode = Params.Parallel)

let test_random_envs_valid () =
  let g = Prng.create 11 in
  for _ = 1 to 100 do
    List.iter
      (fun mode ->
        let env = Params.random g mode in
        check "mode respected" true (env.Params.mode = mode);
        check "positive layout" true
          (env.Params.testing_workgroups > 0 && env.Params.threads_per_workgroup > 0);
        check "percentages" true
          (env.Params.shuffle_pct >= 0 && env.Params.shuffle_pct <= 100
          && env.Params.barrier_pct >= 0
          && env.Params.barrier_pct <= 100);
        let total = env.Params.testing_workgroups * env.Params.threads_per_workgroup in
        check "permute_second coprime" true (Numbers.coprime env.Params.permute_second (max 2 total));
        check "intensity in unit" true
          (Params.stress_intensity env >= 0. && Params.stress_intensity env <= 1.);
        check "jitter scale >= 1" true (Params.jitter_scale env >= 1.);
        check "contention in unit" true
          (Params.location_contention env >= 0. && Params.location_contention env <= 1.))
      [ Params.Single; Params.Parallel ]
  done

let test_scaled () =
  let env = Params.pte_baseline in
  let s = Params.scaled env 0.05 in
  check_int "wgs scaled" 51 s.Params.testing_workgroups;
  check_int "tpw preserved" 256 s.Params.threads_per_workgroup;
  check "scale >= 1 is identity" true (Params.scaled env 1.0 = env);
  check "single mode untouched" true (Params.scaled Params.site_baseline 0.01 = Params.site_baseline)

let test_instances_per_iteration () =
  check_int "single" 1 (Params.instances_per_iteration Params.site_baseline ~roles:2);
  check_int "parallel = threads" (1024 * 256)
    (Params.instances_per_iteration Params.pte_baseline ~roles:2)

let test_stress_intensity_drivers () =
  let base = { Params.site_baseline with Params.mem_stress_pct = 100; mem_stress_iterations = 1024 } in
  let lighter = { base with Params.mem_stress_pct = 10 } in
  check "pct raises intensity" true (Params.stress_intensity base > Params.stress_intensity lighter);
  let spread = { base with Params.stress_target_lines = 32 } in
  check "spread lines dilute" true (Params.stress_intensity base > Params.stress_intensity spread)

let test_pp_and_json () =
  let env = Params.pte_baseline in
  let s = Format.asprintf "%a" Params.pp env in
  check "pp mentions layout" true (String.length s > 0);
  match Params.to_json env with
  | Mcm_util.Jsonw.Obj fields -> check_int "17 parameters + mode + scope" 19 (List.length fields)
  | _ -> Alcotest.fail "expected an object"

(* -------------------------------------------------------------------- *)
(* Assignment                                                             *)

(* One iteration's starts as rows (row i = instance i's role starts),
   copied out of the domain's reused flat buffer. *)
let role_rows ~prng ~profile ~env ~slice_instrs ~instances =
  let a = Assignment.make ~profile ~env ~slice_instrs ~instances in
  let flat = Assignment.fill a ~prng in
  let roles = Array.length slice_instrs in
  Array.init instances (fun i -> Array.sub flat (i * roles) roles)

(* The boxed, matrix-building assignment the flat one replaced, kept
   here as the specification: same formula, same draws in the same
   order, one [Prng.t] call per draw. *)
let reference_rows ~prng ~(profile : Profile.t) ~(env : Params.t) ~slice_instrs ~instances =
  let physical_start ~wg ~lane =
    let align = Params.alignment env in
    let spacing = profile.Profile.workgroup_spacing_ns *. (1. -. (0.85 *. align)) in
    let cus = profile.Profile.compute_units in
    let cu_offset = spacing /. float_of_int (max 1 cus) in
    let lane_offset = float_of_int (lane / 32) *. profile.Profile.instr_latency_ns *. 2. in
    let jitter_mean =
      profile.Profile.start_jitter_ns *. Params.jitter_scale env
      *. (1. +. (profile.Profile.stress_jitter_gain *. Params.stress_intensity env))
      *. (1. -. (0.95 *. align))
    in
    (float_of_int (wg / cus) *. spacing)
    +. (float_of_int (wg mod cus) *. cu_offset)
    +. lane_offset
    +. Prng.exponential prng jitter_mean
  in
  let slice r = float_of_int (slice_instrs.(r) + 2) *. profile.Profile.instr_latency_ns in
  let roles = Array.length slice_instrs in
  let starts = Array.make_matrix instances roles 0. in
  (match (env.Params.mode, env.Params.scope) with
  | Params.Single, Params.Inter_workgroup ->
      let wgs = max roles env.Params.testing_workgroups in
      for r = 0 to roles - 1 do
        starts.(0).(r) <- physical_start ~wg:(r * wgs / roles) ~lane:0
      done
  | Params.Single, Params.Intra_workgroup ->
      for r = 0 to roles - 1 do
        starts.(0).(r) <- physical_start ~wg:0 ~lane:(r * 32)
      done
  | Params.Parallel, scope ->
      let tpw = env.Params.threads_per_workgroup and n = instances in
      let carrier = match scope with Params.Inter_workgroup -> n | Params.Intra_workgroup -> tpw in
      let p = Numbers.coprime_towards env.Params.permute_second carrier in
      let shuffle = Prng.bernoulli prng (float_of_int env.Params.shuffle_pct /. 100.) in
      let wg_order = Array.init (Numbers.ceil_div n tpw) (fun i -> i) in
      if shuffle then Prng.shuffle_in_place prng wg_order;
      for v = 0 to n - 1 do
        let clock = ref (physical_start ~wg:wg_order.(v / tpw) ~lane:(v mod tpw)) in
        let inst = ref v in
        for r = 0 to roles - 1 do
          starts.(!inst).(r) <- !clock;
          clock := !clock +. slice r;
          inst :=
            match scope with
            | Params.Inter_workgroup -> Numbers.permute ~p ~n !inst
            | Params.Intra_workgroup ->
                (v / tpw * tpw) + Numbers.permute ~p ~n:carrier (!inst mod tpw)
        done
      done);
  starts

let test_role_starts_shape () =
  let g = Prng.create 3 in
  let env = Params.scaled Params.pte_baseline 0.01 in
  let instances = Params.instances_per_iteration env ~roles:2 in
  let a = Assignment.make ~profile:Profile.nvidia ~env ~slice_instrs:[| 2; 2 |] ~instances in
  let flat = Assignment.fill a ~prng:g in
  check "buffer holds every start" true (Array.length flat >= instances * 2);
  (* A second fill on this domain reuses the buffer. *)
  check "buffer reused" true (Assignment.fill a ~prng:g == flat);
  let starts = Array.init instances (fun i -> Array.sub flat (i * 2) 2) in
  Array.iter
    (fun row ->
      check_int "one start per role" 2 (Array.length row);
      Array.iter (fun s -> check "non-negative" true (s >= 0.)) row)
    starts

let test_single_mode_roles_spread () =
  let g = Prng.create 4 in
  let starts =
    role_rows ~prng:g ~profile:Profile.nvidia ~env:Params.site_baseline ~slice_instrs:[| 2; 1 |]
      ~instances:1
  in
  check_int "one instance" 1 (Array.length starts);
  check "different wg starts differ" true (starts.(0).(0) <> starts.(0).(1))

let test_parallel_pairing_uses_permutation () =
  (* With the identity permutation every instance's two roles run on the
     same thread back to back, so the role-1 start is always role-0 start
     plus the slice; a coprime permutation breaks that lockstep. *)
  let profile = Profile.intel in
  let env0 =
    { (Params.scaled Params.pte_baseline 0.01) with Params.permute_second = 1; shuffle_pct = 0 }
  in
  let instances = Params.instances_per_iteration env0 ~roles:2 in
  let starts p2 =
    let env = { env0 with Params.permute_second = p2 } in
    role_rows ~prng:(Prng.create 9) ~profile ~env ~slice_instrs:[| 2; 2 |] ~instances
  in
  let identity = starts 1 in
  let gaps = Array.map (fun row -> row.(1) -. row.(0)) identity in
  let first = gaps.(0) in
  check "identity pairing is lockstep" true (Array.for_all (fun g -> abs_float (g -. first) < 1e-6) gaps);
  let p = Numbers.random_coprime (Prng.create 1) instances in
  if p > 1 then begin
    let permuted = Array.map (fun row -> row.(1) -. row.(0)) (starts p) in
    check "coprime pairing varies" true (Array.exists (fun g -> abs_float (g -. first) > 1e-6) permuted)
  end

let test_alignment_tightens_starts () =
  let profile = Profile.nvidia in
  (* 32 roles spread over 32 workgroups put role r in workgroup r; 16
     iterations give 512 starts. *)
  let spread env =
    let g = Prng.create 21 in
    let a = Assignment.make ~profile ~env ~slice_instrs:(Array.make 32 2) ~instances:1 in
    let values = Array.concat (List.init 16 (fun _ -> Array.sub (Assignment.fill a ~prng:g) 0 32)) in
    Array.fold_left Float.max Float.neg_infinity values
    -. Array.fold_left Float.min Float.infinity values
  in
  let plain = { Params.site_baseline with Params.testing_workgroups = 32 } in
  let aligned = { plain with Params.barrier_pct = 100 } in
  check "barrier collapses spread" true (spread aligned < spread plain /. 2.)

let test_parallel_needs_threads () =
  let env = { Params.pte_baseline with Params.threads_per_workgroup = 0 } in
  Alcotest.check_raises "zero threads per workgroup"
    (Invalid_argument "Assignment.make: threads_per_workgroup must be positive in parallel mode")
    (fun () ->
      ignore
        (Assignment.make ~profile:Profile.amd ~env ~slice_instrs:[| 2; 2 |]
           ~instances:(Params.instances_per_iteration env ~roles:2)))

let test_pairing_quality () =
  check "single is 1" true (Assignment.pairing_quality Params.site_baseline = 1.);
  check "trivial multiplier penalised" true
    (Assignment.pairing_quality { Params.pte_baseline with Params.permute_second = 1 } < 1.);
  check "coprime multiplier full" true (Assignment.pairing_quality Params.pte_baseline = 1.)

(* -------------------------------------------------------------------- *)
(* Runner                                                                 *)

let pte_small = Params.scaled Params.pte_baseline 0.02

(* One campaign through the pipeline, serial unless [domains] is given. *)
let exec ?domains c ~device ~env ~test ~iterations ~seed =
  Runner.exec c (Request.make ~device ~env ~test ~iterations ~seed ()) (Request.context ?domains ())

let nvidia = Device.make Profile.nvidia

let test_runner_deterministic () =
  let mutant = (Option.get (Suite.find "MP-CO-m")).Suite.test in
  let run () = exec Runner.Rate ~device:nvidia ~env:pte_small ~test:mutant ~iterations:5 ~seed:77 in
  check "reproducible" true (run () = run ())

let test_runner_counts () =
  let mutant = (Option.get (Suite.find "CoRR-m")).Suite.test in
  let r = exec Runner.Rate ~device:nvidia ~env:pte_small ~test:mutant ~iterations:5 ~seed:1 in
  check_int "iterations recorded" 5 r.Runner.iterations;
  check_int "instances = threads x iterations"
    (5 * Params.instances_per_iteration pte_small ~roles:2)
    r.Runner.instances;
  check "time positive" true (r.Runner.sim_time_s > 0.);
  check "kills bounded" true (r.Runner.kills >= 0 && r.Runner.kills <= r.Runner.instances);
  check "rate consistent" true
    (abs_float (r.Runner.rate -. (float_of_int r.Runner.kills /. r.Runner.sim_time_s)) < 1e-6)

let test_conformance_never_killed_on_correct_devices () =
  (* The cornerstone: on bug-free devices no conformance test is ever
     violated, in parallel or single-instance environments. *)
  List.iter
    (fun (entry : Suite.entry) ->
      List.iter
        (fun device ->
          let r =
            exec Runner.Rate ~device ~env:pte_small ~test:entry.Suite.test ~iterations:3
              ~seed:(Hashtbl.hash entry.Suite.test.Litmus.name)
          in
          if r.Runner.kills > 0 then
            Alcotest.failf "%s violated on %s" entry.Suite.test.Litmus.name (Device.name device))
        (Device.all_correct ()))
    (Suite.conformance_tests ())

let test_no_forbidden_outcomes_anywhere () =
  (* The strongest end-to-end invariant: across the whole generated suite
     (conformance tests AND mutants), a correct simulated device never
     produces an outcome outside the test's memory model. *)
  List.iter
    (fun device ->
      List.iter
        (fun (entry : Suite.entry) ->
          let _, h =
            exec Runner.Histogram ~device ~env:pte_small ~test:entry.Suite.test ~iterations:2
              ~seed:(Hashtbl.hash (Device.name device, entry.Suite.test.Litmus.name))
          in
          if h.Runner.forbidden > 0 then
            Alcotest.failf "%s produced %d forbidden outcomes on %s" entry.Suite.test.Litmus.name
              h.Runner.forbidden (Device.name device))
        (Suite.all ()))
    [ Device.make Profile.nvidia; Device.make Profile.intel ]

let test_pte_kills_mutants () =
  let killed =
    List.filter
      (fun (entry : Suite.entry) ->
        let r =
          exec Runner.Rate ~device:nvidia ~env:pte_small ~test:entry.Suite.test ~iterations:5
            ~seed:(Hashtbl.hash entry.Suite.test.Litmus.name)
        in
        r.Runner.kills > 0)
      (Suite.mutants ())
  in
  (* The PTE baseline should kill well over half the mutants (Sec. 5.2:
     72.7% at full scale). *)
  check "most mutants killed" true (List.length killed * 2 > List.length (Suite.mutants ()))

let test_site_weaker_than_pte () =
  let mutant = (Option.get (Suite.find "MP-CO-m")).Suite.test in
  let site =
    exec Runner.Rate ~device:nvidia ~env:Params.site_baseline ~test:mutant ~iterations:50 ~seed:3
  in
  let pte = exec Runner.Rate ~device:nvidia ~env:pte_small ~test:mutant ~iterations:5 ~seed:3 in
  check "PTE rate dominates SITE baseline on NVIDIA" true (pte.Runner.rate > site.Runner.rate)

let test_bugged_device_caught () =
  let corr = (Option.get (Suite.find "CoRR")).Suite.test in
  let buggy = Device.make ~bugs:[ Mcm_gpu.Bug.Corr_reorder 0.5 ] Profile.intel in
  let r = exec Runner.Rate ~device:buggy ~env:pte_small ~test:corr ~iterations:5 ~seed:5 in
  check "violations observed" true (r.Runner.kills > 0)

let test_histogram_consistent_with_run () =
  let mutant = (Option.get (Suite.find "MP-CO-m")).Suite.test in
  let run () = exec Runner.Rate ~device:nvidia ~env:pte_small ~test:mutant ~iterations:4 ~seed:55 in
  let r, h =
    exec Runner.Histogram ~device:nvidia ~env:pte_small ~test:mutant ~iterations:4 ~seed:55
  in
  check "same result as run" true (run () = r);
  check_int "buckets cover all instances" r.Runner.instances
    (h.Runner.sequential + h.Runner.interleaved + h.Runner.weak + h.Runner.forbidden
    + h.Runner.skipped);
  (* For this mutant every kill is a weak behaviour. *)
  check_int "kills are weak" r.Runner.kills h.Runner.weak;
  check_int "no forbidden on a correct device" 0 h.Runner.forbidden

let test_histogram_forbidden_on_buggy_device () =
  let corr = (Option.get (Suite.find "CoRR")).Suite.test in
  let buggy = Device.make ~bugs:[ Mcm_gpu.Bug.Corr_reorder 0.5 ] Profile.intel in
  let r, h = exec Runner.Histogram ~device:buggy ~env:pte_small ~test:corr ~iterations:4 ~seed:56 in
  check "violations observed" true (r.Runner.kills > 0);
  check "violations classified forbidden" true (h.Runner.forbidden >= r.Runner.kills)

let test_amplification_monotone_in_stress () =
  let stressed =
    { pte_small with Params.mem_stress_pct = 100; mem_stress_iterations = 1024 }
  in
  check "stress raises amplification" true
    (Runner.amplification (Device.make Profile.intel) stressed ~roles:2
    > Runner.amplification (Device.make Profile.intel) pte_small ~roles:2)

(* -------------------------------------------------------------------- *)
(* Intra-workgroup scope (the paper's future-work extension)              *)

let test_scope_default_inter () =
  check "baselines are inter-workgroup" true
    (Params.site_baseline.Params.scope = Params.Inter_workgroup
    && Params.pte_baseline.Params.scope = Params.Inter_workgroup);
  let g = Prng.create 42 in
  check "random envs are inter-workgroup" true
    ((Params.random g Params.Parallel).Params.scope = Params.Inter_workgroup)

let test_with_scope () =
  let intra = Params.with_scope Params.pte_baseline Params.Intra_workgroup in
  check "scope set" true (intra.Params.scope = Params.Intra_workgroup);
  check "rest untouched" true
    (intra.Params.testing_workgroups = Params.pte_baseline.Params.testing_workgroups)

let test_intra_single_roles_close () =
  (* Intra-workgroup roles share a workgroup: their start gap is lanes
     plus jitter, far tighter than cross-workgroup placement. *)
  let gap scope =
    let env = Params.with_scope Params.site_baseline scope in
    let g = Prng.create 5 in
    let total = ref 0. in
    for _ = 1 to 200 do
      let starts =
        role_rows ~prng:g ~profile:Profile.m1 ~env ~slice_instrs:[| 2; 2 |] ~instances:1
      in
      total := !total +. abs_float (starts.(0).(1) -. starts.(0).(0))
    done;
    !total /. 200.
  in
  check "intra gap smaller" true (gap Params.Intra_workgroup < gap Params.Inter_workgroup)

let test_intra_pairing_stays_in_workgroup () =
  (* In parallel intra-workgroup mode, role 1 of an instance runs on a
     thread of the same workgroup — its start differs from role 0's by
     less than a workgroup wave. *)
  let env =
    Params.with_scope
      { (Params.scaled Params.pte_baseline 0.01) with Params.shuffle_pct = 0; barrier_pct = 100 }
      Params.Intra_workgroup
  in
  let instances = Params.instances_per_iteration env ~roles:2 in
  let starts =
    role_rows ~prng:(Prng.create 8) ~profile:Profile.nvidia ~env ~slice_instrs:[| 2; 2 |]
      ~instances
  in
  check_int "instances" instances (Array.length starts);
  Array.iter
    (fun row -> check "roles temporally close" true (abs_float (row.(1) -. row.(0)) < 5_000.))
    starts

let test_intra_amplification_halved () =
  let inter = Params.scaled Params.pte_baseline 0.02 in
  let intra = Params.with_scope inter Params.Intra_workgroup in
  let amp env = Runner.amplification (Device.make Profile.amd) env ~roles:2 in
  check "intra halves amplification" true (abs_float (amp intra -. (0.5 *. amp inter)) < 1e-9)

let test_intra_kills_interleaving_mutants () =
  (* Intra-workgroup scheduling is tight: the reversing-po-loc mutants
     (pure interleaving) die at least as readily on the hardest device. *)
  let mutant = (Option.get (Suite.find "CoRR-m")).Suite.test in
  let env = Params.scaled Params.pte_baseline 0.02 in
  let m1 = Device.make Profile.m1 in
  let intra =
    exec Runner.Rate ~device:m1 ~env:(Params.with_scope env Params.Intra_workgroup) ~test:mutant
      ~iterations:8 ~seed:31
  in
  check "intra kills interleavings" true (intra.Runner.kills > 0);
  check "conformance still safe intra" true
    ((exec Runner.Rate ~device:m1
        ~env:(Params.with_scope env Params.Intra_workgroup)
        ~test:(Option.get (Suite.find "CoRR")).Suite.test ~iterations:5 ~seed:32)
       .Runner.kills = 0)

(* -------------------------------------------------------------------- *)
(* Parallel runner: ?domains must be invisible in the results             *)

let test_parallel_equals_serial_fixed_matrix () =
  (* The acceptance matrix: k ∈ {1,2,4,8} domains, several tests and
     devices, results and histograms bit-identical to the serial oracle
     (structural equality covers the floats too). *)
  let tests = [ "MP-CO-m"; "CoRR"; "MP-relacq-m3" ] in
  let devices = [ Device.make Profile.nvidia; Device.make Profile.intel ] in
  List.iter
    (fun name ->
      let test = (Option.get (Suite.find name)).Suite.test in
      List.iter
        (fun device ->
          let seed = Prng.mix 20230325 (Hashtbl.hash name) in
          let serial = exec Runner.Rate ~device ~env:pte_small ~test ~iterations:6 ~seed in
          let serial_h = exec Runner.Histogram ~device ~env:pte_small ~test ~iterations:6 ~seed in
          List.iter
            (fun k ->
              if exec Runner.Rate ~domains:k ~device ~env:pte_small ~test ~iterations:6 ~seed
                 <> serial
              then Alcotest.failf "%s: result diverged at %d domains" name k;
              if exec Runner.Histogram ~domains:k ~device ~env:pte_small ~test ~iterations:6 ~seed
                 <> serial_h
              then Alcotest.failf "%s: histogram diverged at %d domains" name k)
            [ 1; 2; 4; 8 ])
        devices)
    tests

let test_parallel_zero_iterations () =
  let test = (Option.get (Suite.find "CoRR-m")).Suite.test in
  let serial = exec Runner.Rate ~device:nvidia ~env:pte_small ~test ~iterations:0 ~seed:1 in
  let parallel =
    exec Runner.Rate ~domains:4 ~device:nvidia ~env:pte_small ~test ~iterations:0 ~seed:1
  in
  check "empty campaign identical" true (serial = parallel);
  check_int "no instances" 0 serial.Runner.instances

let test_parallel_more_domains_than_iterations () =
  let test = (Option.get (Suite.find "MP-CO-m")).Suite.test in
  let serial = exec Runner.Rate ~device:nvidia ~env:pte_small ~test ~iterations:2 ~seed:9 in
  let parallel =
    exec Runner.Rate ~domains:8 ~device:nvidia ~env:pte_small ~test ~iterations:2 ~seed:9
  in
  check "starved workers are harmless" true (serial = parallel)

(* -------------------------------------------------------------------- *)
(* Properties                                                             *)

let prop_rate_nonnegative =
  QCheck.Test.make ~count:25 ~name:"runner rates are non-negative" QCheck.small_int (fun seed ->
      let env = Params.scaled (Params.random (Prng.create seed) Params.Parallel) 0.02 in
      let mutant = (Option.get (Suite.find "MP-relacq-m3")).Suite.test in
      let r = exec Runner.Rate ~device:nvidia ~env ~test:mutant ~iterations:2 ~seed in
      r.Runner.rate >= 0. && r.Runner.kills <= r.Runner.instances)

let prop_parallel_equals_serial =
  (* For arbitrary seeds, iteration counts and domains ∈ {1..8}, the
     sharded runner is indistinguishable from the serial oracle — kills,
     instance counts, rates and every histogram bucket. *)
  QCheck.Test.make ~count:30 ~name:"sharded exec == serial oracle"
    QCheck.(
      triple small_int (make (Gen.int_range 0 8)) (make (Gen.int_range 1 8)))
    (fun (seed, iterations, domains) ->
      let env = Params.scaled (Params.random (Prng.create seed) Params.Parallel) 0.01 in
      let test = (Option.get (Suite.find "MP-CO-m")).Suite.test in
      let serial = exec Runner.Histogram ~device:nvidia ~env ~test ~iterations ~seed in
      let parallel = exec Runner.Histogram ~domains ~device:nvidia ~env ~test ~iterations ~seed in
      serial = parallel)

let prop_role_starts_deterministic =
  QCheck.Test.make ~count:50 ~name:"role starts are deterministic" QCheck.small_int (fun seed ->
      let env = Params.scaled Params.pte_baseline 0.01 in
      let instances = Params.instances_per_iteration env ~roles:2 in
      let go () =
        role_rows ~prng:(Prng.create seed) ~profile:Profile.amd ~env ~slice_instrs:[| 2; 2 |]
          ~instances
      in
      go () = go ())

let prop_fill_matches_reference =
  (* Every mode and scope, random envs (shuffle, barrier, stress and
     pre-stress on), every profile, 1-4 roles of random lengths: the
     flat assignment must equal the boxed reference bit for bit and
     leave the generator in the same state. *)
  QCheck.Test.make ~count:200 ~name:"flat fill matches the boxed reference" QCheck.small_int
    (fun seed ->
      let g = Prng.create seed in
      let mode = if Prng.bool g then Params.Single else Params.Parallel in
      let env = Params.scaled (Params.random g mode) 0.02 in
      let env = if Prng.bool g then Params.with_scope env Params.Intra_workgroup else env in
      let profile = Prng.pick g (Array.of_list Profile.all) in
      let slice_instrs = Array.init (1 + Prng.int g 4) (fun _ -> 1 + Prng.int g 6) in
      let roles = Array.length slice_instrs in
      let instances = Params.instances_per_iteration env ~roles in
      let g_ref = Prng.create (Prng.bits62 g) in
      let g_flat = Prng.copy g_ref in
      let expected = reference_rows ~prng:g_ref ~profile ~env ~slice_instrs ~instances in
      let actual = role_rows ~prng:g_flat ~profile ~env ~slice_instrs ~instances in
      expected = actual && Prng.state g_ref = Prng.state g_flat)

let () =
  Alcotest.run "testenv"
    [
      ( "params",
        [
          Alcotest.test_case "baselines stress-free" `Quick test_baselines_are_stress_free;
          Alcotest.test_case "baseline shapes" `Quick test_baseline_shapes;
          Alcotest.test_case "random envs valid" `Quick test_random_envs_valid;
          Alcotest.test_case "scaled" `Quick test_scaled;
          Alcotest.test_case "instances per iteration" `Quick test_instances_per_iteration;
          Alcotest.test_case "stress intensity drivers" `Quick test_stress_intensity_drivers;
          Alcotest.test_case "pp and json" `Quick test_pp_and_json;
        ] );
      ( "assignment",
        [
          Alcotest.test_case "role starts shape" `Quick test_role_starts_shape;
          Alcotest.test_case "single mode spread" `Quick test_single_mode_roles_spread;
          Alcotest.test_case "coprime pairing" `Quick test_parallel_pairing_uses_permutation;
          Alcotest.test_case "alignment tightens" `Quick test_alignment_tightens_starts;
          Alcotest.test_case "pairing quality" `Quick test_pairing_quality;
          Alcotest.test_case "parallel needs threads per workgroup" `Quick
            test_parallel_needs_threads;
        ] );
      ( "runner",
        [
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "counts" `Quick test_runner_counts;
          Alcotest.test_case "conformance never killed" `Slow
            test_conformance_never_killed_on_correct_devices;
          Alcotest.test_case "no forbidden outcomes anywhere" `Slow
            test_no_forbidden_outcomes_anywhere;
          Alcotest.test_case "PTE kills mutants" `Quick test_pte_kills_mutants;
          Alcotest.test_case "SITE weaker than PTE" `Quick test_site_weaker_than_pte;
          Alcotest.test_case "bugged device caught" `Quick test_bugged_device_caught;
          Alcotest.test_case "histogram consistent" `Quick test_histogram_consistent_with_run;
          Alcotest.test_case "histogram forbidden on bugs" `Quick
            test_histogram_forbidden_on_buggy_device;
          Alcotest.test_case "amplification monotone" `Quick test_amplification_monotone_in_stress;
        ] );
      ( "scope",
        [
          Alcotest.test_case "default inter" `Quick test_scope_default_inter;
          Alcotest.test_case "with_scope" `Quick test_with_scope;
          Alcotest.test_case "intra single roles close" `Quick test_intra_single_roles_close;
          Alcotest.test_case "intra pairing in workgroup" `Quick test_intra_pairing_stays_in_workgroup;
          Alcotest.test_case "intra amplification" `Quick test_intra_amplification_halved;
          Alcotest.test_case "intra kills interleavings" `Quick test_intra_kills_interleaving_mutants;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "k in {1,2,4,8} equals serial" `Quick
            test_parallel_equals_serial_fixed_matrix;
          Alcotest.test_case "zero iterations" `Quick test_parallel_zero_iterations;
          Alcotest.test_case "domains > iterations" `Quick
            test_parallel_more_domains_than_iterations;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_rate_nonnegative;
            prop_parallel_equals_serial;
            prop_role_starts_deterministic;
            prop_fill_matches_reference;
          ]
      );
    ]

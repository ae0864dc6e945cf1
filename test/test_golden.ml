(* Golden regression test for the campaign runner.

   Pins kill counts and full behaviour histograms for a fixed matrix of
   (suite test × mutator × device profile × seed) campaigns, so a future
   runner/assignment/instance refactor cannot silently change the
   simulated weak-memory behaviour: any such drift shows up here as an
   exact-count diff, not as a statistical wobble a directional test
   might absorb.

   The matrix covers one conformance test and one mutant of each of the
   paper's three mutators, on all four device profiles, plus one
   bug-injected device. Everything is bit-deterministic (seeded PRNG,
   integer tallies), so exact equality is the right check.

   That matrix runs one environment only (the scaled PTE baseline:
   no shuffle, no barrier, no stress, inter-workgroup pairing), so a
   second matrix pins the rest of role assignment: a SITE env, two
   seeded random PTE envs with shuffle, barrier, memory stress and
   pre-stress all on, and an intra-workgroup PTE env, each over a
   fenced test, a same-thread double-write test and a plain one, on
   the paper-bug devices. Both engines share role assignment, so the
   kernel-vs-interpreter differential alone cannot catch a drift
   there.

   To regenerate after an *intentional* semantic change:
     MCM_GOLDEN_REGEN=1 dune exec test/test_golden.exe
   and paste the printed rows over [expected] and [expected_envs]
   below. *)

module Prng = Mcm_util.Prng
module Suite = Mcm_core.Suite
module Profile = Mcm_gpu.Profile
module Device = Mcm_gpu.Device
module Bug = Mcm_gpu.Bug
module Params = Mcm_testenv.Params
module Runner = Mcm_testenv.Runner
module Request = Mcm_testenv.Request

let seed = 20230325
let iterations = 3
let env = Params.scaled Params.pte_baseline 0.02

(* name, device label, kills, sequential, interleaved, weak, forbidden,
   skipped — one row per campaign of the matrix. *)
type row = string * string * int * int * int * int * int * int

let devices =
  List.map (fun p -> (p.Profile.short_name, Device.make p)) Profile.all
  @ [ ("Intel+corr-bug", Device.make ~bugs:[ Bug.Corr_reorder 0.5 ] Profile.intel) ]

(* CoRR: conformance; CoRR-m: reversing po-loc; MP-CO-m: weakening
   po-loc; MP-relacq-m3: weakening sw. *)
let tests = [ "CoRR"; "CoRR-m"; "MP-CO-m"; "MP-relacq-m3" ]

let rows ~engine () : row list =
  List.concat_map
    (fun name ->
      let test = (Option.get (Suite.find name)).Suite.test in
      List.map
        (fun (label, device) ->
          let r, h =
            Runner.exec Runner.Histogram
              (Request.make ~engine ~device ~env ~test ~iterations ~seed ())
              Request.serial
          in
          ( name,
            label,
            r.Runner.kills,
            h.Runner.sequential,
            h.Runner.interleaved,
            h.Runner.weak,
            h.Runner.forbidden,
            h.Runner.skipped ))
        devices)
    tests

let expected : row list =
  [
    ("CoRR", "NVIDIA", 0, 7448, 20, 0, 0, 7892);
    ("CoRR", "AMD", 0, 13520, 65, 0, 0, 1775);
    ("CoRR", "Intel", 0, 14781, 579, 0, 0, 0);
    ("CoRR", "M1", 0, 5454, 14, 0, 0, 9892);
    ("CoRR", "Intel+corr-bug", 308, 14765, 287, 0, 308, 0);
    ("CoRR-m", "NVIDIA", 20, 7448, 20, 0, 0, 7892);
    ("CoRR-m", "AMD", 65, 13520, 65, 0, 0, 1775);
    ("CoRR-m", "Intel", 579, 14781, 579, 0, 0, 0);
    ("CoRR-m", "M1", 14, 5454, 14, 0, 0, 9892);
    ("CoRR-m", "Intel+corr-bug", 287, 14765, 287, 0, 308, 0);
    ("MP-CO-m", "NVIDIA", 39, 7408, 50, 39, 0, 7863);
    ("MP-CO-m", "AMD", 36, 13461, 95, 36, 0, 1768);
    ("MP-CO-m", "Intel", 131, 14310, 919, 131, 0, 0);
    ("MP-CO-m", "M1", 2, 5467, 40, 2, 0, 9851);
    ("MP-CO-m", "Intel+corr-bug", 131, 14310, 919, 131, 0, 0);
    ("MP-relacq-m3", "NVIDIA", 32, 7416, 49, 32, 0, 7863);
    ("MP-relacq-m3", "AMD", 47, 13444, 101, 47, 0, 1768);
    ("MP-relacq-m3", "Intel", 191, 14150, 1019, 191, 0, 0);
    ("MP-relacq-m3", "M1", 7, 5455, 47, 7, 0, 9851);
    ("MP-relacq-m3", "Intel+corr-bug", 191, 14150, 1019, 191, 0, 0);
  ]

let pp_row (name, dev, k, s, i, w, f, sk) =
  Printf.sprintf "(%S, %S, %d, %d, %d, %d, %d, %d);" name dev k s i w f sk

(* The environment matrix: label, env, iterations. SITE runs one
   instance per iteration, so it gets more iterations; the random PTE
   envs shuffle with probability 42% and 64% per iteration, so they get
   enough iterations for some to shuffle. *)
let random_env seed mode = Params.random (Prng.create seed) mode

let envs =
  [
    ("site-random", random_env 7 Params.Single, 200);
    ("pte-random-a", Params.scaled (random_env 3 Params.Parallel) 0.02, 6);
    ("pte-random-b", Params.scaled (random_env 12 Params.Parallel) 0.02, 8);
    ( "pte-intra",
      Params.with_scope (Params.scaled (random_env 5 Params.Parallel) 0.02) Params.Intra_workgroup,
      3 );
  ]

let bug_devices = List.map (fun d -> (Device.name d, d)) (Device.with_paper_bugs ())

(* MP-relacq: fences on both sides; CoWW-m: a thread writes one
   location twice; MP-CO-m: neither. *)
let env_tests = [ "MP-relacq"; "CoWW-m"; "MP-CO-m" ]

(* env label, test, device label, kills, sequential, interleaved, weak,
   forbidden, skipped. *)
type env_row = string * string * string * int * int * int * int * int * int

let env_rows ~engine () : env_row list =
  List.concat_map
    (fun (env_label, env, iterations) ->
      List.concat_map
        (fun name ->
          let test = (Option.get (Suite.find name)).Suite.test in
          List.map
            (fun (label, device) ->
              let r, h =
            Runner.exec Runner.Histogram
              (Request.make ~engine ~device ~env ~test ~iterations ~seed ())
              Request.serial
          in
              ( env_label,
                name,
                label,
                r.Runner.kills,
                h.Runner.sequential,
                h.Runner.interleaved,
                h.Runner.weak,
                h.Runner.forbidden,
                h.Runner.skipped ))
            bug_devices)
        env_tests)
    envs

let expected_envs : env_row list =
  [
    ("site-random", "MP-relacq", "NVIDIA+bugs", 0, 1, 0, 0, 0, 199);
    ("site-random", "MP-relacq", "AMD+bugs", 0, 72, 1, 0, 0, 127);
    ("site-random", "MP-relacq", "Intel+bugs", 0, 174, 26, 0, 0, 0);
    ("site-random", "MP-relacq", "M1", 0, 11, 1, 0, 0, 188);
    ("site-random", "CoWW-m", "NVIDIA+bugs", 0, 0, 0, 0, 0, 200);
    ("site-random", "CoWW-m", "AMD+bugs", 0, 26, 0, 0, 0, 174);
    ("site-random", "CoWW-m", "Intel+bugs", 0, 182, 11, 0, 7, 0);
    ("site-random", "CoWW-m", "M1", 0, 0, 0, 0, 0, 200);
    ("site-random", "MP-CO-m", "NVIDIA+bugs", 0, 1, 0, 0, 0, 199);
    ("site-random", "MP-CO-m", "AMD+bugs", 0, 71, 0, 0, 0, 129);
    ("site-random", "MP-CO-m", "Intel+bugs", 0, 191, 9, 0, 0, 0);
    ("site-random", "MP-CO-m", "M1", 0, 8, 0, 0, 0, 192);
    ("pte-random-a", "MP-relacq", "NVIDIA+bugs", 0, 1826, 18, 0, 0, 5836);
    ("pte-random-a", "MP-relacq", "AMD+bugs", 6, 5526, 48, 0, 6, 2100);
    ("pte-random-a", "MP-relacq", "Intel+bugs", 0, 6814, 866, 0, 0, 0);
    ("pte-random-a", "MP-relacq", "M1", 0, 1139, 21, 0, 0, 6520);
    ("pte-random-a", "CoWW-m", "NVIDIA+bugs", 0, 381, 27, 0, 36, 7236);
    ("pte-random-a", "CoWW-m", "AMD+bugs", 0, 4015, 53, 0, 0, 3612);
    ("pte-random-a", "CoWW-m", "Intel+bugs", 13, 6995, 497, 0, 188, 0);
    ("pte-random-a", "CoWW-m", "M1", 0, 184, 4, 0, 0, 7492);
    ("pte-random-a", "MP-CO-m", "NVIDIA+bugs", 6, 1808, 9, 6, 0, 5857);
    ("pte-random-a", "MP-CO-m", "AMD+bugs", 19, 5506, 34, 19, 0, 2121);
    ("pte-random-a", "MP-CO-m", "Intel+bugs", 109, 7196, 375, 109, 0, 0);
    ("pte-random-a", "MP-CO-m", "M1", 0, 1122, 12, 0, 0, 6546);
    ("pte-random-b", "MP-relacq", "NVIDIA+bugs", 0, 161, 6, 0, 0, 857);
    ("pte-random-b", "MP-relacq", "AMD+bugs", 0, 724, 15, 0, 0, 285);
    ("pte-random-b", "MP-relacq", "Intel+bugs", 0, 846, 178, 0, 0, 0);
    ("pte-random-b", "MP-relacq", "M1", 0, 105, 8, 0, 0, 911);
    ("pte-random-b", "CoWW-m", "NVIDIA+bugs", 0, 37, 2, 0, 1, 984);
    ("pte-random-b", "CoWW-m", "AMD+bugs", 0, 525, 4, 0, 0, 495);
    ("pte-random-b", "CoWW-m", "Intel+bugs", 8, 915, 78, 0, 31, 0);
    ("pte-random-b", "CoWW-m", "M1", 0, 27, 2, 0, 0, 995);
    ("pte-random-b", "MP-CO-m", "NVIDIA+bugs", 0, 160, 0, 0, 0, 864);
    ("pte-random-b", "MP-CO-m", "AMD+bugs", 0, 725, 9, 0, 0, 290);
    ("pte-random-b", "MP-CO-m", "Intel+bugs", 3, 934, 87, 3, 0, 0);
    ("pte-random-b", "MP-CO-m", "M1", 0, 99, 5, 0, 0, 920);
    ("pte-intra", "MP-relacq", "NVIDIA+bugs", 0, 1560, 72, 0, 0, 6048);
    ("pte-intra", "MP-relacq", "AMD+bugs", 4, 4592, 60, 0, 4, 3024);
    ("pte-intra", "MP-relacq", "Intel+bugs", 0, 6960, 720, 0, 0, 0);
    ("pte-intra", "MP-relacq", "M1", 0, 1096, 33, 0, 0, 6551);
    ("pte-intra", "CoWW-m", "NVIDIA+bugs", 2, 350, 53, 0, 43, 7234);
    ("pte-intra", "CoWW-m", "AMD+bugs", 1, 2860, 63, 0, 0, 4757);
    ("pte-intra", "CoWW-m", "Intel+bugs", 12, 7139, 387, 0, 154, 0);
    ("pte-intra", "CoWW-m", "M1", 0, 268, 5, 0, 0, 7407);
    ("pte-intra", "MP-CO-m", "NVIDIA+bugs", 4, 1599, 13, 4, 0, 6064);
    ("pte-intra", "MP-CO-m", "AMD+bugs", 7, 4612, 13, 7, 0, 3048);
    ("pte-intra", "MP-CO-m", "Intel+bugs", 39, 7351, 290, 39, 0, 0);
    ("pte-intra", "MP-CO-m", "M1", 0, 1082, 13, 0, 0, 6585);
  ]

let pp_env_row (e, name, dev, k, s, i, w, f, sk) =
  Printf.sprintf "(%S, %S, %S, %d, %d, %d, %d, %d, %d);" e name dev k s i w f sk

(* The pinned counts predate the compiled kernel, so running the matrix
   through both engines also golden-checks the kernel's bit-identity on
   real campaigns, not just the qcheck differential suite. *)
let test_golden_matrix engine () =
  List.iter2
    (fun actual exp ->
      if actual <> exp then
        Alcotest.failf "golden drift:\n  expected %s\n  actual   %s" (pp_row exp) (pp_row actual))
    (rows ~engine ()) expected

let test_env_matrix engine () =
  List.iter2
    (fun actual exp ->
      if actual <> exp then
        Alcotest.failf "golden drift:\n  expected %s\n  actual   %s" (pp_env_row exp)
          (pp_env_row actual))
    (env_rows ~engine ()) expected_envs

(* The random envs must really exercise what they are here to pin. *)
let test_env_coverage () =
  List.iter
    (fun (label, env, _) ->
      if env.Params.mode = Params.Parallel then
        Alcotest.(check bool)
          (label ^ ": shuffle, barrier, stress and pre-stress all on")
          true
          (env.Params.shuffle_pct > 0 && env.Params.barrier_pct > 0
          && env.Params.mem_stress_pct > 0 && env.Params.pre_stress_pct > 0))
    envs;
  Alcotest.(check int) "env rows = envs x tests x devices"
    (List.length envs * List.length env_tests * List.length bug_devices)
    (List.length expected_envs)

let test_matrix_shape () =
  Alcotest.(check int) "rows = tests x devices" (List.length tests * List.length devices)
    (List.length expected)

let () =
  if Sys.getenv_opt "MCM_GOLDEN_REGEN" <> None then begin
    List.iter
      (fun r -> Printf.printf "    %s\n" (pp_row r))
      (rows ~engine:Runner.Interpreter ());
    print_newline ();
    List.iter
      (fun r -> Printf.printf "    %s\n" (pp_env_row r))
      (env_rows ~engine:Runner.Interpreter ());
    exit 0
  end;
  Alcotest.run "golden"
    [
      ( "runner",
        [
          Alcotest.test_case "matrix shape" `Quick test_matrix_shape;
          Alcotest.test_case "pinned campaigns (interpreter)" `Quick
            (test_golden_matrix Runner.Interpreter);
          Alcotest.test_case "pinned campaigns (kernel)" `Quick
            (test_golden_matrix Runner.Kernel);
        ] );
      ( "envs",
        [
          Alcotest.test_case "env coverage" `Quick test_env_coverage;
          Alcotest.test_case "pinned env campaigns (interpreter)" `Quick
            (test_env_matrix Runner.Interpreter);
          Alcotest.test_case "pinned env campaigns (kernel)" `Quick
            (test_env_matrix Runner.Kernel);
        ] );
    ]

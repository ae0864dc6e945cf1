(* Tuning study: how individual environment parameters move a mutant's
   death rate and the behaviour mix — the paper's Sec. 4.1/5.2 mechanics,
   one knob at a time, everything else held at the PTE baseline.

   The three sweeps show the three mechanisms:
     - workgroups  -> occupancy: weak behaviours need parallelism;
     - barrier_pct -> alignment: interleavings need temporal overlap;
     - stress      -> contention: amplifies weak memory, but costs time
                      (watch the rate fall on stress-sensitive devices
                      even as the weak fraction rises).
   Two ablations follow: the pairing permutation, and the simulator's
   weak-memory mechanisms knocked out one at a time.

   Run with: dune exec examples/tuning_study.exe *)

module Suite = Mcm_core.Suite
module Litmus = Mcm_litmus.Litmus
module Profile = Mcm_gpu.Profile
module Device = Mcm_gpu.Device
module Instance = Mcm_gpu.Instance
module Bug = Mcm_gpu.Bug
module Prng = Mcm_util.Prng
module Params = Mcm_testenv.Params
module Runner = Mcm_testenv.Runner
module Request = Mcm_testenv.Request
module Table = Mcm_util.Table

let iterations = 8
let seed = 2023
let ctx = Request.context ~domains:(Mcm_util.Pool.default_domains ()) ()

let study ~title ~device ~test ~envs =
  Printf.printf "\n%s (device %s, mutant %s)\n" title (Device.name device) test.Litmus.name;
  let t =
    Table.create [ "Setting"; "Kills"; "Rate (/s)"; "Weak"; "Interleaved"; "Sequential" ]
  in
  List.iter
    (fun (label, env) ->
      let r, h =
        Runner.exec Runner.Histogram
          (Request.make ~device ~env ~test ~iterations ~seed ())
          ctx
      in
      let executed = max 1 (r.Runner.instances - h.Runner.skipped) in
      let pct n = Printf.sprintf "%.2f%%" (100. *. float_of_int n /. float_of_int executed) in
      Table.add_row t
        [
          label;
          string_of_int r.Runner.kills;
          Table.rate_cell r.Runner.rate;
          pct h.Runner.weak;
          pct h.Runner.interleaved;
          pct h.Runner.sequential;
        ])
    envs;
  Table.print t

(* Switch each of the simulator's weak-memory mechanisms off in turn and
   count, out of 3000 instances on NVIDIA, those that kill each
   mutant. *)
let knockout ~base =
  let device = Device.make Profile.nvidia in
  let full =
    Instance.effective_params Profile.nvidia
      ~amplification:(Runner.amplification device base ~roles:2)
  in
  let kills weak test =
    let g = Prng.create 99 in
    let n = ref 0 in
    for _ = 1 to 3000 do
      let starts = [| Prng.float g 40.; Prng.float g 40. |] in
      let o = Instance.run ~prng:(Prng.split g) ~weak ~bugs:Bug.none ~test ~starts () in
      if test.Litmus.target o then incr n
    done;
    !n
  in
  let tests =
    List.map (fun n -> (Option.get (Suite.find n)).Suite.test) [ "CoRR-m"; "MP-CO-m"; "LB-CO-m" ]
  in
  Printf.printf "\nMechanism knockout (device %s, kills out of 3000 instances)\n"
    (Device.name device);
  let t = Table.create ("Mechanisms" :: List.map (fun (t : Litmus.t) -> t.Litmus.name) tests) in
  List.iter
    (fun (label, weak) ->
      Table.add_row t (label :: List.map (fun test -> string_of_int (kills weak test)) tests))
    [
      ("all mechanisms", full);
      ("no store-visibility delay", { full with Instance.vis_delay_mean_ns = 0. });
      ("no load staleness", { full with Instance.p_stale = 0. });
      ("no out-of-order window", { full with Instance.p_ooo = 0. });
      ( "interleaving only",
        { full with Instance.vis_delay_mean_ns = 0.; p_stale = 0.; p_ooo = 0. } );
    ];
  Table.print t

let () =
  let base = Params.scaled Params.pte_baseline 0.02 in
  let mp_co_m = (Option.get (Suite.find "MP-CO-m")).Suite.test in
  let corr_m = (Option.get (Suite.find "CoRR-m")).Suite.test in

  (* 1. Occupancy: shrink the parallel layout down to a single pair. *)
  study ~title:"Occupancy sweep (testing workgroups)" ~device:(Device.make Profile.nvidia)
    ~test:mp_co_m
    ~envs:
      (List.map
         (fun wgs ->
           (Printf.sprintf "%d workgroups" wgs, { base with Params.testing_workgroups = wgs }))
         [ 2; 4; 8; 16; 20 ]);

  (* 2. Alignment: the barrier percentage controls temporal overlap. *)
  study ~title:"Alignment sweep (barrier_pct)" ~device:(Device.make Profile.m1) ~test:corr_m
    ~envs:
      (List.map
         (fun pct -> (Printf.sprintf "barrier %d%%" pct, { base with Params.barrier_pct = pct }))
         [ 0; 25; 50; 75; 100 ]);

  (* 3. Stress: intensity raises the weak fraction but slows the kernel. *)
  study ~title:"Stress sweep (mem_stress)" ~device:(Device.make Profile.intel) ~test:mp_co_m
    ~envs:
      (List.map
         (fun pct ->
           ( Printf.sprintf "stress %d%%" pct,
             { base with Params.mem_stress_pct = pct; mem_stress_iterations = 512 } ))
         [ 0; 25; 50; 75; 100 ]);

  (* 4. The pairing permutation ablation, as a behaviour mix. *)
  study ~title:"Pairing sweep (permute_second)" ~device:(Device.make Profile.amd) ~test:mp_co_m
    ~envs:
      [
        ("identity (v -> v)", { base with Params.permute_second = 1 });
        ("coprime 419", { base with Params.permute_second = 419 });
        ("coprime 1031", { base with Params.permute_second = 1031 });
      ];

  (* 5. Scope: the future-work extension — intra-workgroup testing. *)
  study ~title:"Scope sweep" ~device:(Device.make Profile.m1) ~test:corr_m
    ~envs:
      [
        ("inter-workgroup", base);
        ("intra-workgroup", Params.with_scope base Params.Intra_workgroup);
      ];

  (* 6. Which simulator mechanism carries which mutant. *)
  knockout ~base

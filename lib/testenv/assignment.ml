module Raw = Mcm_util.Prng.Raw
module Numbers = Mcm_util.Numbers
module Profile = Mcm_gpu.Profile

let warp_width = 32

type pairing =
  | Spread  (* single instance, roles spread across the workgroup grid *)
  | Lanes  (* single instance, roles on lanes of one workgroup *)
  | Inter  (* parallel, pairing over all instances *)
  | Intra  (* parallel, pairing within each workgroup *)

(* Everything about an iteration's starts that does not depend on its
   draws. The float fields are the exact values the per-thread formula
   used to recompute, so hoisting them changes no result. *)
type t = {
  pairing : pairing;
  roles : int;
  instances : int;
  spread_wgs : int;  (* Spread: workgroups the roles are spread over *)
  tpw : int;
  p : int;  (* coprime multiplier, snapped to the carrier *)
  wg_count : int;
  shuffle_p : float;
  cus : int;
  spacing : float;
  cu_offset : float;
  latency : float;
  jitter_mean : float;
  slice_ns : float array;  (* per role: how long its slice occupies a thread *)
}

let make ~(profile : Profile.t) ~(env : Params.t) ~slice_instrs ~instances =
  let roles = Array.length slice_instrs in
  let align = Params.alignment env in
  (* Barriers align the testing threads: both the structural spacing and
     the random skew collapse as barrier_pct rises. *)
  let spacing = profile.Profile.workgroup_spacing_ns *. (1. -. (0.85 *. align)) in
  let cus = profile.Profile.compute_units in
  let jitter_mean =
    profile.Profile.start_jitter_ns *. Params.jitter_scale env
    *. (1. +. (profile.Profile.stress_jitter_gain *. Params.stress_intensity env))
    *. (1. -. (0.95 *. align))
  in
  let tpw = env.Params.threads_per_workgroup in
  let pairing =
    match (env.Params.mode, env.Params.scope) with
    | Params.Single, Params.Inter_workgroup -> Spread
    | Params.Single, Params.Intra_workgroup -> Lanes
    | Params.Parallel, Params.Inter_workgroup -> Inter
    | Params.Parallel, Params.Intra_workgroup -> Intra
  in
  if (pairing = Inter || pairing = Intra) && tpw < 1 then
    invalid_arg "Assignment.make: threads_per_workgroup must be positive in parallel mode";
  (* The multiplier must be coprime to the carrier (all instances for
     inter-workgroup pairing, one workgroup's worth for intra-workgroup
     pairing) for the mapping to permute; when scaling changed the
     carrier, snap to the nearest valid multiplier rather than degrade
     to the identity. *)
  let carrier = match pairing with Intra -> tpw | Spread | Lanes | Inter -> instances in
  {
    pairing;
    roles;
    instances;
    spread_wgs = max roles env.Params.testing_workgroups;
    tpw;
    p = Numbers.coprime_towards env.Params.permute_second carrier;
    wg_count = (if tpw < 1 then 0 else Numbers.ceil_div instances tpw);
    shuffle_p = float_of_int env.Params.shuffle_pct /. 100.;
    cus;
    spacing;
    cu_offset = spacing /. float_of_int (max 1 cus);
    latency = profile.Profile.instr_latency_ns;
    jitter_mean;
    (* A slice occupies its thread for its instructions plus a small
       bookkeeping gap (index arithmetic of the permutation). *)
    slice_ns =
      Array.map (fun instrs -> float_of_int (instrs + 2) *. profile.Profile.instr_latency_ns)
        slice_instrs;
  }

(* When the thread at (wg, lane) starts: its workgroup's wave, its
   compute-unit skew, its warp's lane offset, plus exponential jitter. *)
let[@inline always] start a rng ~wg ~lane =
  (float_of_int (wg / a.cus) *. a.spacing)
  +. (float_of_int (wg mod a.cus) *. a.cu_offset)
  +. (float_of_int (lane / warp_width) *. a.latency *. 2.)
  +. Raw.exponential rng a.jitter_mean

(* Per-domain scratch: the starts buffer and the shuffled launch order,
   both grown on demand and reused by every campaign on the domain. *)
type scratch = { mutable starts : float array; mutable order : int array; rng : Raw.state }

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { starts = [||]; order = [||]; rng = Raw.make () })

let fill a ~prng =
  let sc = Domain.DLS.get scratch_key in
  let need = a.instances * a.roles in
  if Array.length sc.starts < need then sc.starts <- Array.make need 0.;
  let starts = sc.starts and rng = sc.rng in
  Raw.load rng prng;
  (match a.pairing with
  | Spread ->
      (* One instance; roles spread across the workgroup grid. *)
      for r = 0 to a.roles - 1 do
        starts.(r) <- start a rng ~wg:(r * a.spread_wgs / a.roles) ~lane:0
      done
  | Lanes ->
      (* The future-work scope: roles are lanes of one workgroup. *)
      for r = 0 to a.roles - 1 do
        starts.(r) <- start a rng ~wg:0 ~lane:(r * warp_width)
      done
  | Inter | Intra ->
      (* Optional shuffle: remap workgroup launch order this iteration.
         Unshuffled, the order is the identity and is never built. *)
      let shuffled = Raw.bernoulli rng a.shuffle_p in
      if shuffled then begin
        if Array.length sc.order < a.wg_count then sc.order <- Array.make a.wg_count 0;
        for k = 0 to a.wg_count - 1 do
          sc.order.(k) <- k
        done;
        Raw.shuffle_in_place rng sc.order ~len:a.wg_count
      end;
      let order = sc.order and roles = a.roles and n = a.instances and tpw = a.tpw and p = a.p in
      let intra = a.pairing = Intra in
      for v = 0 to n - 1 do
        let wg = if shuffled then order.(v / tpw) else v / tpw in
        let clock = ref (start a rng ~wg ~lane:(v mod tpw)) in
        let inst = ref v in
        for r = 0 to roles - 1 do
          starts.((!inst * roles) + r) <- !clock;
          clock := !clock +. a.slice_ns.(r);
          inst :=
            if intra then
              (* Pair within the instance's own workgroup. *)
              (v / tpw * tpw) + (!inst mod tpw * p mod tpw)
            else !inst * p mod n
        done
      done);
  Raw.store rng prng;
  starts

let pairing_quality (env : Params.t) =
  match env.Params.mode with
  | Params.Single -> 1.
  | Params.Parallel -> if env.Params.permute_second > 1 then 1.0 else 0.6

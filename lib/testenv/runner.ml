module Prng = Mcm_util.Prng
module Pool = Mcm_util.Pool
module Litmus = Mcm_litmus.Litmus
module Profile = Mcm_gpu.Profile
module Device = Mcm_gpu.Device
module Instance = Mcm_gpu.Instance
module Kernel = Mcm_gpu.Kernel
module Timing = Mcm_gpu.Timing
module Scope = Mcm_memmodel.Scope

type engine = Request.engine = Interpreter | Kernel

(* The env's scope axis decides the thread layout the engines see: the
   inter-workgroup environment puts every role in its own workgroup (so
   workgroup-scoped fences cannot order across roles), the
   intra-workgroup environment puts all roles in one. *)
let layout_of_env (env : Params.t) =
  match env.Params.scope with
  | Params.Inter_workgroup -> Scope.Inter
  | Params.Intra_workgroup -> Scope.Intra

type result = {
  kills : int;
  instances : int;
  iterations : int;
  sim_time_s : float;
  rate : float;
}

let amplification (device : Device.t) (env : Params.t) ~roles =
  let profile = device.Device.profile in
  let instances = Params.instances_per_iteration env ~roles in
  let occupancy = Profile.occupancy_amplifier profile ~instances in
  let stress = Profile.stress_amplifier profile ~intensity:(Params.stress_intensity env) in
  (* Intra-workgroup roles communicate through the compute unit's own
     cache level, where propagation is prompt — weak-memory amplification
     halves, while the tighter scheduling (handled by Assignment) makes
     interleavings easier. *)
  let scope_factor = match env.Params.scope with
    | Params.Inter_workgroup -> 1.0
    | Params.Intra_workgroup -> 0.5
  in
  ((occupancy *. Assignment.pairing_quality env
   *. (0.75 +. (0.5 *. Params.location_contention env)))
  +. stress)
  *. scope_factor

type histogram = {
  sequential : int;
  interleaved : int;
  weak : int;
  forbidden : int;
  skipped : int;
}

(* Per-iteration outcome tallies. Iterations are the parallel unit: each
   derives its PRNG independently via [Prng.mix seed it], so tallies from
   any partition of the iteration axis sum to the serial totals exactly —
   integer addition is associative, and nothing else crosses iterations. *)
type tally = {
  t_kills : int;
  t_sequential : int;
  t_interleaved : int;
  t_weak : int;
  t_forbidden : int;
  t_skipped : int;
  t_outcomes : Litmus.outcome list;
      (** distinct outcomes of executed instances, sorted; empty unless
          the campaign collects observations. [tally_add] merges the
          sorted unique lists, so the invariant holds at every fold step
          and partitioning the iteration axis cannot change the result. *)
}

let tally_zero =
  {
    t_kills = 0;
    t_sequential = 0;
    t_interleaved = 0;
    t_weak = 0;
    t_forbidden = 0;
    t_skipped = 0;
    t_outcomes = [];
  }

(* Merge two sorted unique lists into one, dropping duplicates. Linear
   in the output, unlike the concat + terminal [sort_uniq] it replaced,
   which made folding [iterations] tallies quadratic in the total
   observation count. Outcome lists are small (distinct outcomes of one
   test), so the non-tail recursion is fine. *)
let rec merge_uniq a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: xs, y :: ys ->
      let c = compare x y in
      if c < 0 then x :: merge_uniq xs b
      else if c > 0 then y :: merge_uniq a ys
      else x :: merge_uniq xs ys

let tally_add a b =
  {
    t_kills = a.t_kills + b.t_kills;
    t_sequential = a.t_sequential + b.t_sequential;
    t_interleaved = a.t_interleaved + b.t_interleaved;
    t_weak = a.t_weak + b.t_weak;
    t_forbidden = a.t_forbidden + b.t_forbidden;
    t_skipped = a.t_skipped + b.t_skipped;
    t_outcomes = merge_uniq a.t_outcomes b.t_outcomes;
  }

(* Per-domain workspace cache. One DLS slot for the whole program —
   campaigns are far more frequent than domains, and keying the cached
   workspace on the kernel's identity means a domain reuses its
   workspace across every iteration of a campaign while a new campaign
   (new kernel) transparently replaces it. A fresh key per campaign
   would leak DLS slots instead. This is the reference (Per_cell)
   path's workspace strategy; the Schema plan uses the arena below. *)
let ws_slot : (Kernel.t * Kernel.workspace) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let workspace_for kernel =
  match Domain.DLS.get ws_slot with
  | Some (k, ws) when k == kernel -> ws
  | _ ->
      let ws = Kernel.workspace kernel in
      Domain.DLS.set ws_slot (Some (kernel, ws));
      ws

(* ------------------------------------------------------------------ *)
(* Cross-cell memoization (the Schema plan).

   Engine-wide counters first: cheap atomics, bumped once per cell or
   per cross-cell reuse (never per instance), read by [engine_stats]. *)

let prefab_hits_c = Atomic.make 0
let workspaces_built_c = Atomic.make 0
let workspace_reuses_c = Atomic.make 0

type engine_stats = {
  kernels_compiled : int;
  schema_reuses : int;
  workspaces_built : int;
  workspace_reuses : int;
}

let engine_stats () =
  {
    kernels_compiled = Kernel.images_built ();
    schema_reuses = Kernel.image_hits () + Atomic.get prefab_hits_c;
    workspaces_built = Atomic.get workspaces_built_c;
    workspace_reuses = Atomic.get workspace_reuses_c;
  }

let engine_stats_sub a b =
  {
    kernels_compiled = a.kernels_compiled - b.kernels_compiled;
    schema_reuses = a.schema_reuses - b.schema_reuses;
    workspaces_built = a.workspaces_built - b.workspaces_built;
    workspace_reuses = a.workspace_reuses - b.workspace_reuses;
  }

let pp_engine_stats fmt s =
  Format.fprintf fmt "%d kernel(s) compiled, %d schema reuse(s), %d workspace reuse(s)"
    s.kernels_compiled s.schema_reuses s.workspace_reuses

(* Per-domain workspace arena: one workspace per kernel *image*, reused
   across every cell whose kernel shares that image (the scratch arrays
   depend only on the image's extents, and [Kernel.adopt] rebinds the
   workspace to the current cell's kernel). Bounded; reset wholesale
   when full — the workspaces are reallocated on demand. *)
let arena_max = 64

let arena_key : (int, Kernel.t * Kernel.workspace) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let arena_workspace k =
  let tbl = Domain.DLS.get arena_key in
  let id = Kernel.image_id k in
  match Hashtbl.find_opt tbl id with
  | Some (k0, ws) when k0 == k -> ws
  | Some (_, ws) ->
      (* Same image, different cell: the cross-cell reuse this arena
         exists for. *)
      Kernel.adopt ws k;
      Atomic.incr workspace_reuses_c;
      Hashtbl.replace tbl id (k, ws);
      ws
  | None ->
      if Hashtbl.length tbl >= arena_max then Hashtbl.reset tbl;
      let ws = Kernel.workspace k in
      Atomic.incr workspaces_built_c;
      Hashtbl.replace tbl id (k, ws);
      ws

(* The memoized campaign prefix: everything [campaign] derives from
   (engine, test, device, env) before touching iterations or seed —
   effective weak params, bug effect, instance counts, the hoisted
   role-assignment constants, the horizon, the iteration time, and
   (for the kernel engine) the compiled kernel itself. Cells that
   differ only in mutation scalars, bug flags, iterations or seed reuse
   one prefab.

   Keyed per domain (no locks) by test name, refined by physical
   equality on the test (its [target] is a closure) and structural
   equality on the device/env records (pure scalar data) — an exact,
   cheap refinement of the canonical prefix identity that
   [Key.cell_fields] serializes between the kind and the iteration
   count. *)
type prefab = {
  p_test : Litmus.t;
  p_device : Device.t;
  p_env : Params.t;
  p_engine : engine;
  p_bugs : Mcm_gpu.Bug.effect;
  p_instances : int;
  p_assign : Assignment.t;
  p_weak : Instance.weak_params;
  p_horizon : float;
  p_iteration_ns : float;
  p_layout : Scope.layout;
  p_kernel : Kernel.t option;
}

let prefab_max = 512

type prefab_cache = { tbl : (string, prefab list) Hashtbl.t; mutable count : int }

let prefab_key : prefab_cache Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { tbl = Hashtbl.create 64; count = 0 })

let build_prefab ~plan ~engine ~device ~env ~test =
  let profile = device.Device.profile in
  let bugs = Device.effect device in
  let roles = Litmus.nthreads test in
  let instances = Params.instances_per_iteration env ~roles in
  let slice_instrs = Array.map List.length test.Litmus.threads in
  let max_slice = Array.fold_left max 0 slice_instrs in
  let instrs_per_thread =
    (match env.Params.mode with
    | Params.Single -> max_slice
    | Params.Parallel -> Array.fold_left ( + ) 0 slice_instrs)
    + Params.extra_instrs_per_thread env
  in
  let weak =
    Instance.effective_params profile ~amplification:(amplification device env ~roles)
  in
  (* Beyond this separation, roles cannot interact through any modelled
     weak-memory mechanism; see the interface note. *)
  let horizon =
    (float_of_int (Array.fold_left ( + ) 0 slice_instrs) *. weak.Instance.instr_latency_ns *. 2.)
    +. (30. *. (weak.Instance.vis_delay_mean_ns +. weak.Instance.stale_mean_ns))
    +. (4. *. weak.Instance.instr_latency_ns)
  in
  let iteration_ns =
    Timing.iteration_time_ns profile ~workgroups:env.Params.testing_workgroups
      ~threads_per_workgroup:env.Params.threads_per_workgroup ~instrs_per_thread
      ~stress_intensity:(Params.stress_intensity env)
  in
  let layout = layout_of_env env in
  let kernel =
    match engine with
    | Interpreter -> None
    | Kernel ->
        Some
          (match plan with
          | Request.Per_cell -> Kernel.compile ~layout ~weak ~bugs ~test ()
          | Request.Schema -> Kernel.compile_cached ~layout ~weak ~bugs ~test ())
  in
  {
    p_test = test;
    p_device = device;
    p_env = env;
    p_engine = engine;
    p_bugs = bugs;
    p_instances = instances;
    p_assign = Assignment.make ~profile ~env ~slice_instrs ~instances;
    p_weak = weak;
    p_horizon = horizon;
    p_iteration_ns = iteration_ns;
    p_layout = layout;
    p_kernel = kernel;
  }

let prefab_matches p ~engine ~device ~env ~test =
  (* Physical equality first: sweeps share device/env values across
     cells, so the structural compare (polymorphic, over float-bearing
     records) only runs when a cell rebuilt them. *)
  p.p_test == test && p.p_engine = engine
  && (p.p_device == device || p.p_device = device)
  && (p.p_env == env || p.p_env = env)

let prefab_for ~plan ~engine ~device ~env ~test =
  match plan with
  | Request.Per_cell -> build_prefab ~plan ~engine ~device ~env ~test
  | Request.Schema -> (
      let cache = Domain.DLS.get prefab_key in
      let name = test.Litmus.name in
      let bucket = Option.value ~default:[] (Hashtbl.find_opt cache.tbl name) in
      match bucket with
      (* The common sweep pattern holds one (device, env) fixed across a
         run of seeds; keep the bucket move-to-front so that run pays
         one head probe per lookup. *)
      | p :: _ when prefab_matches p ~engine ~device ~env ~test ->
          Atomic.incr prefab_hits_c;
          p
      | bucket -> (
      let hit = List.find_opt (fun p -> prefab_matches p ~engine ~device ~env ~test) bucket in
      match hit with
      | Some p ->
          Atomic.incr prefab_hits_c;
          Hashtbl.replace cache.tbl name (p :: List.filter (fun q -> q != p) bucket);
          p
      | None ->
          if cache.count >= prefab_max then begin
            Hashtbl.reset cache.tbl;
            cache.count <- 0
          end;
          let p = build_prefab ~plan ~engine ~device ~env ~test in
          let bucket = Option.value ~default:[] (Hashtbl.find_opt cache.tbl name) in
          Hashtbl.replace cache.tbl name (p :: bucket);
          cache.count <- cache.count + 1;
          p))

(* Build the campaign's per-iteration function plus the derived constants.
   Everything the returned closure captures is immutable (or, for the
   classifier's table, written before and only read after), so it is safe
   to call from any domain. *)
let campaign ~engine ~plan ~classify ~collect ~device ~env ~test ~seed =
  let pf = prefab_for ~plan ~engine ~device ~env ~test in
  let bugs = pf.p_bugs in
  let roles = Litmus.nthreads test in
  let instances = pf.p_instances in
  let assign = pf.p_assign in
  let weak = pf.p_weak in
  let horizon = pf.p_horizon in
  let iteration_ns = pf.p_iteration_ns in
  let target = test.Litmus.target in
  (* The kernel engine compiles the (test, device, env) triple once per
     campaign (Per_cell) or once per image family (Schema); each domain
     then executes every instance against its own reused workspace, so
     the steady-state instance path allocates nothing. Both engines
     read one role assignment per iteration (the interpreter a copy of
     each instance's slice) and consume identical PRNG draws — the
     kernel's parent stream is the iteration PRNG captured after
     [Assignment.fill], and [run_next] splits a child per executed
     instance exactly as the interpreter arm's [Prng.split] does. The
     kernel arm asks the workspace's verdict table whether the target
     held ([Kernel.target_holds]); the interpreter arm calls it. *)
  let kernel = pf.p_kernel in
  let acquire_ws =
    match plan with Request.Per_cell -> workspace_for | Request.Schema -> arena_workspace
  in
  let run_iteration it =
    let prng = Prng.create (Prng.mix seed it) in
    let starts = Assignment.fill assign ~prng in
    let kernel_ws =
      match kernel with
      | None -> None
      | Some k ->
          let ws = acquire_ws k in
          Kernel.set_parent ws prng;
          Some (k, ws)
    in
    let kills = ref 0 and skipped = ref 0 in
    let sequential = ref 0 and interleaved = ref 0 and weak_n = ref 0 and forbidden = ref 0 in
    let observed = ref [] in
    for i = 0 to instances - 1 do
      let off = i * roles in
      let lo = ref starts.(off) and hi = ref starts.(off) in
      for r = 1 to roles - 1 do
        let s = starts.(off + r) in
        if s < !lo then lo := s;
        if s > !hi then hi := s
      done;
      if !hi -. !lo <= horizon then begin
        let outcome =
          match kernel_ws with
          | Some (k, ws) ->
              let outcome = Kernel.run_next k ws ~starts ~off in
              if Kernel.target_holds ws then incr kills;
              outcome
          | None ->
              let outcome =
                Instance.run ~layout:pf.p_layout ~prng:(Prng.split prng) ~weak ~bugs ~test
                  ~starts:(Array.sub starts off roles) ()
              in
              if target outcome then incr kills;
              outcome
        in
        if collect then
          (* The kernel returns its workspace's reused outcome record;
             snapshot it only when the campaign actually collects. *)
          observed :=
            (match kernel_ws with Some (_, ws) -> Kernel.snapshot ws | None -> outcome)
            :: !observed;
        match classify with
        | None -> ()
        | Some classify -> (
            match classify outcome with
            | Mcm_litmus.Classify.Sequential -> incr sequential
            | Mcm_litmus.Classify.Interleaved -> incr interleaved
            | Mcm_litmus.Classify.Weak -> incr weak_n
            | Mcm_litmus.Classify.Forbidden -> incr forbidden)
      end
      else incr skipped
    done;
    {
      t_kills = !kills;
      t_sequential = !sequential;
      t_interleaved = !interleaved;
      t_weak = !weak_n;
      t_forbidden = !forbidden;
      t_skipped = !skipped;
      t_outcomes = List.sort_uniq compare !observed;
    }
  in
  (run_iteration, instances, iteration_ns)

let run_campaign ?(engine = Kernel) ?(plan = Request.Schema) ?pool ?domains ?chunk
    ?(collect = false) ~classify ~device ~env ~test ~iterations ~seed () =
  let run_iteration, instances, iteration_ns =
    campaign ~engine ~plan ~classify ~collect ~device ~env ~test ~seed
  in
  let on pool =
    Pool.map_reduce ?chunk pool ~n:iterations ~map:run_iteration ~fold:tally_add ~init:tally_zero
  in
  let tally =
    match (pool, domains) with
    | Some p, _ -> on p
    | None, (None | Some 1) ->
        let acc = ref tally_zero in
        for it = 0 to iterations - 1 do
          acc := tally_add !acc (run_iteration it)
        done;
        !acc
    | None, Some d -> Pool.with_pool ~domains:d on
  in
  let sim_time_s = Timing.to_seconds (float_of_int iterations *. iteration_ns) in
  let result =
    {
      kills = tally.t_kills;
      instances = instances * iterations;
      iterations;
      sim_time_s;
      rate = (if sim_time_s > 0. then float_of_int tally.t_kills /. sim_time_s else 0.);
    }
  in
  (result, tally)

(* ------------------------------------------------------------------ *)
(* Result codecs: the persisted payload of each collector.             *)

module Jsonw = Mcm_util.Jsonw
module Jsonp = Mcm_util.Jsonp

let ( let* ) = Result.bind

(* Jsonw prints non-finite floats as the strings "nan"/"inf"/"-inf", so
   a payload read back from disk carries them as [String]s. *)
let float_of_json = function
  | Jsonw.String "nan" -> Some Float.nan
  | Jsonw.String "inf" -> Some Float.infinity
  | Jsonw.String "-inf" -> Some Float.neg_infinity
  | v -> Jsonp.to_float v

let field name conv v =
  match Option.bind (Jsonp.member name v) conv with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let result_to_json r =
  Jsonw.Obj
    [
      ("kills", Jsonw.Int r.kills);
      ("instances", Jsonw.Int r.instances);
      ("iterations", Jsonw.Int r.iterations);
      ("simTimeS", Jsonw.Float r.sim_time_s);
      ("rate", Jsonw.Float r.rate);
    ]

let result_of_json v =
  let* kills = field "kills" Jsonp.to_int v in
  let* instances = field "instances" Jsonp.to_int v in
  let* iterations = field "iterations" Jsonp.to_int v in
  let* sim_time_s = field "simTimeS" float_of_json v in
  let* rate = field "rate" float_of_json v in
  Ok { kills; instances; iterations; sim_time_s; rate }

let histogram_cell_to_json (r, h) =
  Jsonw.Obj
    [
      ("result", result_to_json r);
      ( "histogram",
        Jsonw.Obj
          [
            ("sequential", Jsonw.Int h.sequential);
            ("interleaved", Jsonw.Int h.interleaved);
            ("weak", Jsonw.Int h.weak);
            ("forbidden", Jsonw.Int h.forbidden);
            ("skipped", Jsonw.Int h.skipped);
          ] );
    ]

let histogram_cell_of_json v =
  let* rv = field "result" Option.some v in
  let* r = result_of_json rv in
  let* hv = field "histogram" Option.some v in
  let* sequential = field "sequential" Jsonp.to_int hv in
  let* interleaved = field "interleaved" Jsonp.to_int hv in
  let* weak = field "weak" Jsonp.to_int hv in
  let* forbidden = field "forbidden" Jsonp.to_int hv in
  let* skipped = field "skipped" Jsonp.to_int hv in
  Ok (r, { sequential; interleaved; weak; forbidden; skipped })

let int_array_to_json a = Jsonw.List (Array.to_list (Array.map (fun i -> Jsonw.Int i) a))

let int_array_of_json v =
  match v with
  | Jsonw.List items ->
      let rec go acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | x :: rest -> (
            match Jsonp.to_int x with
            | Some i -> go (i :: acc) rest
            | None -> Error "non-integer in array")
      in
      go [] items
  | _ -> Error "expected an array of integers"

let outcome_to_json (o : Litmus.outcome) =
  Jsonw.Obj
    [
      ("regs", Jsonw.List (Array.to_list (Array.map int_array_to_json o.Litmus.regs)));
      ("final", int_array_to_json o.Litmus.final);
    ]

let outcome_of_json v =
  let* regs_v = field "regs" Option.some v in
  let* regs =
    match regs_v with
    | Jsonw.List rows ->
        let rec go acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | row :: rest ->
              let* a = int_array_of_json row in
              go (a :: acc) rest
        in
        go [] rows
    | _ -> Error "expected an array of register rows"
  in
  let* final_v = field "final" Option.some v in
  let* final = int_array_of_json final_v in
  Ok { Litmus.regs; final }

let outcomes_cell_to_json (r, outcomes) =
  Jsonw.Obj
    [
      ("result", result_to_json r);
      ("outcomes", Jsonw.List (List.map outcome_to_json outcomes));
    ]

let outcomes_cell_of_json v =
  let* rv = field "result" Option.some v in
  let* r = result_of_json rv in
  let* os_v = field "outcomes" Option.some v in
  let* outcomes =
    match os_v with
    | Jsonw.List items ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | x :: rest ->
              let* o = outcome_of_json x in
              go (o :: acc) rest
        in
        go [] items
    | _ -> Error "expected an array of outcomes"
  in
  Ok (r, outcomes)

(* ------------------------------------------------------------------ *)
(* The unified entry point: one collector-indexed execution function.  *)

type _ collect =
  | Rate : result collect
  | Histogram : (result * histogram) collect
  | Outcomes : (result * Litmus.outcome list) collect

let kind : type a. a collect -> string = function
  | Rate -> "run"
  | Histogram -> "histogram"
  | Outcomes -> "outcomes"

let encode : type a. a collect -> a -> Jsonw.t = function
  | Rate -> result_to_json
  | Histogram -> histogram_cell_to_json
  | Outcomes -> outcomes_cell_to_json

let decode : type a. a collect -> Jsonw.t -> (a, string) Stdlib.result = function
  | Rate -> result_of_json
  | Histogram -> histogram_cell_of_json
  | Outcomes -> outcomes_cell_of_json

let compute : type a. a collect -> Request.t -> ctx:Request.ctx -> a =
 fun c (r : Request.t) ~ctx ->
  let pool, domains =
    if ctx.Request.domains <= 1 then (None, None) else (ctx.Request.pool, Some ctx.Request.domains)
  in
  let chunk = Request.chunk_for ctx ~n:r.Request.iterations in
  let go ?(collect = false) ~classify () =
    run_campaign ~engine:r.Request.engine ~plan:ctx.Request.plan ?pool ?domains ~chunk ~collect
      ~classify ~device:r.Request.device ~env:r.Request.env ~test:r.Request.test
      ~iterations:r.Request.iterations ~seed:r.Request.seed ()
  in
  match c with
  | Rate -> fst (go ~classify:None ())
  | Histogram ->
      let classify = Mcm_litmus.Classify.classifier r.Request.test in
      let result, tally = go ~classify:(Some classify) () in
      ( result,
        {
          sequential = tally.t_sequential;
          interleaved = tally.t_interleaved;
          weak = tally.t_weak;
          forbidden = tally.t_forbidden;
          skipped = tally.t_skipped;
        } )
  | Outcomes ->
      let result, tally = go ~collect:true ~classify:None () in
      (* [t_outcomes] is sorted and unique by the [tally_add] invariant. *)
      (result, tally.t_outcomes)

(* Serve a cell from the store when possible; otherwise compute and
   persist it. A cached payload that no longer decodes (e.g. written by
   a different codec revision under the same [Key.code_version], which
   would be a bug, or hand-edited) is recomputed but NOT re-added:
   first-write-wins, and its key already exists on disk. *)
let exec : type a. a collect -> Request.t -> Request.ctx -> a =
 fun c r ctx ->
  match ctx.Request.store with
  | None -> compute c r ~ctx
  | Some st -> (
      let key = Request.key ~kind:(kind c) r in
      match Mcm_campaign.Store.find st key with
      | Some payload -> (
          match decode c payload with Ok v -> v | Error _ -> compute c r ~ctx)
      | None ->
          let v = compute c r ~ctx in
          Mcm_campaign.Store.add st key (encode c v);
          v)

module Prng = Mcm_util.Prng
module Numbers = Mcm_util.Numbers
module Jsonw = Mcm_util.Jsonw

type stress_pattern = Store_store | Store_load | Load_store | Load_load

type stress_strategy = Round_robin | Chunking

type mode = Single | Parallel

type scope = Inter_workgroup | Intra_workgroup

type t = {
  mode : mode;
  scope : scope;
  testing_workgroups : int;
  threads_per_workgroup : int;
  shuffle_pct : int;
  barrier_pct : int;
  mem_stress_pct : int;
  mem_stress_iterations : int;
  mem_stress_pattern : stress_pattern;
  pre_stress_pct : int;
  pre_stress_iterations : int;
  pre_stress_pattern : stress_pattern;
  stress_line_size : int;
  stress_target_lines : int;
  scratch_memory_size : int;
  mem_stride : int;
  stress_strategy : stress_strategy;
  permute_first : int;
  permute_second : int;
}

let site_baseline =
  {
    mode = Single;
    scope = Inter_workgroup;
    testing_workgroups = 32;
    threads_per_workgroup = 1;
    shuffle_pct = 0;
    barrier_pct = 0;
    mem_stress_pct = 0;
    mem_stress_iterations = 0;
    mem_stress_pattern = Store_store;
    pre_stress_pct = 0;
    pre_stress_iterations = 0;
    pre_stress_pattern = Store_store;
    stress_line_size = 64;
    stress_target_lines = 2;
    scratch_memory_size = 2048;
    mem_stride = 1;
    stress_strategy = Round_robin;
    permute_first = 1;
    permute_second = 1;
  }

let pte_baseline =
  {
    site_baseline with
    mode = Parallel;
    testing_workgroups = 1024;
    threads_per_workgroup = 256;
    permute_first = 419;
    permute_second = 1031;
  }

let patterns = [| Store_store; Store_load; Load_store; Load_load |]
let strategies = [| Round_robin; Chunking |]

let random g mode =
  let pow2 lo hi = 1 lsl (lo + Prng.int g (hi - lo + 1)) in
  let pct () = Prng.int g 101 in
  (* Parallel layouts skew large: the point of a PTE is to use the
     device's full thread capacity (Sec. 4.1), and the published tuning
     presets run hundreds of workgroups. *)
  let testing_workgroups =
    match mode with Single -> 2 + Prng.int g 31 | Parallel -> pow2 6 10 (* 64 .. 1024 *)
  in
  let threads_per_workgroup = match mode with Single -> 1 | Parallel -> pow2 5 8 (* 32 .. 256 *) in
  let total = testing_workgroups * threads_per_workgroup in
  {
    mode;
    scope = Inter_workgroup;
    testing_workgroups;
    threads_per_workgroup;
    shuffle_pct = pct ();
    barrier_pct = pct ();
    mem_stress_pct = pct ();
    mem_stress_iterations = pow2 4 10;
    mem_stress_pattern = Prng.pick g patterns;
    pre_stress_pct = pct ();
    pre_stress_iterations = pow2 4 10;
    pre_stress_pattern = Prng.pick g patterns;
    stress_line_size = pow2 2 10;
    stress_target_lines = pow2 0 5;
    scratch_memory_size = pow2 9 12;
    mem_stride = pow2 0 7;
    stress_strategy = Prng.pick g strategies;
    permute_first = Numbers.random_coprime g (max 2 total);
    permute_second = Numbers.random_coprime g (max 2 total);
  }

(* Only the workgroup count shrinks: threads-per-workgroup drives the
   occupancy response curves, and shrinking it too would change which
   devices exhibit weak behaviour at all. *)
let scaled env f =
  if f >= 1. || env.mode = Single then env
  else
    let wgs = max 2 (int_of_float (float_of_int env.testing_workgroups *. f)) in
    { env with testing_workgroups = wgs }

let with_scope env scope = { env with scope }

let instances_per_iteration env ~roles =
  ignore roles;
  (* Every testing thread runs one role slice of [roles] instances back to
     back, so the instance count equals the thread count (Fig. 4: two
     workgroups of 256 threads run 512 instances of a two-thread test). *)
  match env.mode with
  | Single -> 1
  | Parallel -> max 1 (env.testing_workgroups * env.threads_per_workgroup)

let pattern_weight = function
  | Store_store -> 1.0
  | Store_load -> 0.8
  | Load_store -> 0.6
  | Load_load -> 0.4

(* Intensity saturates with loop length, concentrates with few target
   lines, and chunking keeps each thread hammering one line. *)
let stress_intensity env =
  let probability = float_of_int env.mem_stress_pct /. 100. in
  if probability = 0. then 0.
  else
    let length = 1. -. exp (-.float_of_int env.mem_stress_iterations /. 256.) in
    let concentration = 1. /. (1. +. (float_of_int env.stress_target_lines /. 8.)) in
    let strategy = match env.stress_strategy with Chunking -> 1.0 | Round_robin -> 0.85 in
    probability *. length *. concentration *. strategy *. pattern_weight env.mem_stress_pattern

let jitter_scale env =
  let shuffle = float_of_int env.shuffle_pct /. 100. in
  let pre = float_of_int env.pre_stress_pct /. 100. in
  let pre_len = 1. -. exp (-.float_of_int env.pre_stress_iterations /. 256.) in
  1. +. (0.6 *. shuffle) +. (1.2 *. pre *. pre_len *. pattern_weight env.pre_stress_pattern)

let alignment env = float_of_int env.barrier_pct /. 100.

let location_contention env =
  let sharing = float_of_int env.stress_line_size /. float_of_int (max 1 env.mem_stride) in
  Float.min 1. (sharing /. 64.)

let extra_instrs_per_thread env =
  let stress =
    env.mem_stress_pct * env.mem_stress_iterations / 100 * 2
    + (env.pre_stress_pct * env.pre_stress_iterations / 100 * 2)
  in
  min stress 4096

let pattern_name = function
  | Store_store -> "store-store"
  | Store_load -> "store-load"
  | Load_store -> "load-store"
  | Load_load -> "load-load"

let strategy_name = function Round_robin -> "round-robin" | Chunking -> "chunking"

let mode_name = function Single -> "single" | Parallel -> "parallel"

let scope_name = function Inter_workgroup -> "inter-workgroup" | Intra_workgroup -> "intra-workgroup"

let pp fmt env =
  Format.fprintf fmt
    "%s (%s): %d wgs x %d threads, shuffle %d%%, barrier %d%%, stress %d%%x%d %s, pre %d%%x%d %s, lines \
     %dx%d, scratch %d, stride %d, %s, P1=%d, P2=%d"
    (mode_name env.mode) (scope_name env.scope) env.testing_workgroups env.threads_per_workgroup env.shuffle_pct
    env.barrier_pct env.mem_stress_pct env.mem_stress_iterations
    (pattern_name env.mem_stress_pattern) env.pre_stress_pct env.pre_stress_iterations
    (pattern_name env.pre_stress_pattern) env.stress_target_lines env.stress_line_size
    env.scratch_memory_size env.mem_stride
    (strategy_name env.stress_strategy)
    env.permute_first env.permute_second

let to_json env =
  Jsonw.Obj
    [
      ("mode", Jsonw.String (mode_name env.mode));
      ("scope", Jsonw.String (scope_name env.scope));
      ("testingWorkgroups", Jsonw.Int env.testing_workgroups);
      ("threadsPerWorkgroup", Jsonw.Int env.threads_per_workgroup);
      ("shufflePct", Jsonw.Int env.shuffle_pct);
      ("barrierPct", Jsonw.Int env.barrier_pct);
      ("memStressPct", Jsonw.Int env.mem_stress_pct);
      ("memStressIterations", Jsonw.Int env.mem_stress_iterations);
      ("memStressPattern", Jsonw.String (pattern_name env.mem_stress_pattern));
      ("preStressPct", Jsonw.Int env.pre_stress_pct);
      ("preStressIterations", Jsonw.Int env.pre_stress_iterations);
      ("preStressPattern", Jsonw.String (pattern_name env.pre_stress_pattern));
      ("stressLineSize", Jsonw.Int env.stress_line_size);
      ("stressTargetLines", Jsonw.Int env.stress_target_lines);
      ("scratchMemorySize", Jsonw.Int env.scratch_memory_size);
      ("memStride", Jsonw.Int env.mem_stride);
      ("stressStrategy", Jsonw.String (strategy_name env.stress_strategy));
      ("permuteFirst", Jsonw.Int env.permute_first);
      ("permuteSecond", Jsonw.Int env.permute_second);
    ]

(* The wire codec's read half. Field-by-field inverse of [to_json]:
   every field is required and must carry the exact name/type [to_json]
   writes, so a request that round-trips is canonical by construction. *)
let of_json v =
  let module Jsonp = Mcm_util.Jsonp in
  let ( let* ) = Result.bind in
  let int name =
    match Option.bind (Jsonp.member name v) Jsonp.to_int with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "env: missing or non-integer %S" name)
  in
  (* A layout needs a workgroup and a thread in it; role assignment
     divides by the thread count. *)
  let positive name =
    let* i = int name in
    if i >= 1 then Ok i else Error (Printf.sprintf "env: %S must be at least 1, got %d" name i)
  in
  let str name =
    match Option.bind (Jsonp.member name v) Jsonp.to_string_opt with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "env: missing or non-string %S" name)
  in
  let enum name decode =
    let* s = str name in
    match decode s with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "env: unknown %S value %S" name s)
  in
  let pattern_of_name = function
    | "store-store" -> Some Store_store
    | "store-load" -> Some Store_load
    | "load-store" -> Some Load_store
    | "load-load" -> Some Load_load
    | _ -> None
  in
  let* mode =
    enum "mode" (function "single" -> Some Single | "parallel" -> Some Parallel | _ -> None)
  in
  let* scope =
    enum "scope" (function
      | "inter-workgroup" -> Some Inter_workgroup
      | "intra-workgroup" -> Some Intra_workgroup
      | _ -> None)
  in
  let* testing_workgroups = positive "testingWorkgroups" in
  let* threads_per_workgroup = positive "threadsPerWorkgroup" in
  let* shuffle_pct = int "shufflePct" in
  let* barrier_pct = int "barrierPct" in
  let* mem_stress_pct = int "memStressPct" in
  let* mem_stress_iterations = int "memStressIterations" in
  let* mem_stress_pattern = enum "memStressPattern" pattern_of_name in
  let* pre_stress_pct = int "preStressPct" in
  let* pre_stress_iterations = int "preStressIterations" in
  let* pre_stress_pattern = enum "preStressPattern" pattern_of_name in
  let* stress_line_size = int "stressLineSize" in
  let* stress_target_lines = int "stressTargetLines" in
  let* scratch_memory_size = int "scratchMemorySize" in
  let* mem_stride = int "memStride" in
  let* stress_strategy =
    enum "stressStrategy" (function
      | "round-robin" -> Some Round_robin
      | "chunking" -> Some Chunking
      | _ -> None)
  in
  let* permute_first = int "permuteFirst" in
  let* permute_second = int "permuteSecond" in
  Ok
    {
      mode;
      scope;
      testing_workgroups;
      threads_per_workgroup;
      shuffle_pct;
      barrier_pct;
      mem_stress_pct;
      mem_stress_iterations;
      mem_stress_pattern;
      pre_stress_pct;
      pre_stress_iterations;
      pre_stress_pattern;
      stress_line_size;
      stress_target_lines;
      scratch_memory_size;
      mem_stride;
      stress_strategy;
      permute_first;
      permute_second;
    }

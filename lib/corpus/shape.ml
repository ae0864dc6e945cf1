module Jsonw = Mcm_util.Jsonw
module Jsonp = Mcm_util.Jsonp

type t = {
  threads : int;
  events : int;
  locs : int;
  rmw : bool;
  fence : bool;
  wg_fence : bool;  (* admit workgroup-scoped fences into the alphabet *)
}

let default = { threads = 2; events = 4; locs = 2; rmw = false; fence = false; wg_fence = false }

(* The ranges keep exhaustive enumeration and per-program oracle checks
   tractable. The widest, 3x6x3 with the full alphabet, is 517,321
   canonical programs from 10,655,382 raw ones; enumerating it takes
   6-7 s (release build, one core of a 2-vCPU host), and its packed
   keys are the longest (9 codes). *)
let min_threads = 2
let max_threads = 3
let max_events = 6
let max_locs = 3

let ( let* ) = Result.bind

let component ~what s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s must be an integer, got %S" what s)

let validate t =
  if t.threads < min_threads || t.threads > max_threads then
    Error (Printf.sprintf "threads must be in %d..%d, got %d" min_threads max_threads t.threads)
  else if t.events < t.threads || t.events > max_events then
    Error
      (Printf.sprintf "events must be in %d..%d (>= threads), got %d" t.threads max_events t.events)
  else if t.locs < 1 || t.locs > max_locs then
    Error (Printf.sprintf "locations must be in 1..%d, got %d" max_locs t.locs)
  else Ok t

let of_spec ?(rmw = false) ?(fence = false) ?(wg_fence = false) spec =
  match String.split_on_char 'x' (String.trim spec) with
  | [ k; e; l ] ->
      let* threads = component ~what:"threads" k in
      let* events = component ~what:"events" e in
      let* locs = component ~what:"locations" l in
      validate { threads; events; locs; rmw; fence; wg_fence }
  | _ -> Error (Printf.sprintf "expected THREADSxEVENTSxLOCS (e.g. 2x4x2), got %S" spec)

let to_spec t = Printf.sprintf "%dx%dx%d" t.threads t.events t.locs

let fields t =
  [
    ("threads", Jsonw.Int t.threads);
    ("events", Jsonw.Int t.events);
    ("locs", Jsonw.Int t.locs);
    ("rmw", Jsonw.Bool t.rmw);
    ("fence", Jsonw.Bool t.fence);
    ("wgFence", Jsonw.Bool t.wg_fence);
  ]

let of_json j =
  let* threads =
    match Option.bind (Jsonp.member "threads" j) Jsonp.to_int with
    | Some v -> Ok v
    | None -> Error "shape: missing threads"
  in
  let* events =
    match Option.bind (Jsonp.member "events" j) Jsonp.to_int with
    | Some v -> Ok v
    | None -> Error "shape: missing events"
  in
  let* locs =
    match Option.bind (Jsonp.member "locs" j) Jsonp.to_int with
    | Some v -> Ok v
    | None -> Error "shape: missing locs"
  in
  let bool_member key =
    match Jsonp.member key j with Some (Jsonw.Bool b) -> b | _ -> false
  in
  validate
    {
      threads;
      events;
      locs;
      rmw = bool_member "rmw";
      fence = bool_member "fence";
      wg_fence = bool_member "wgFence";
    }

let pp ppf t =
  Format.fprintf ppf "%s%s%s%s" (to_spec t)
    (if t.rmw then "+rmw" else "")
    (if t.fence then "+fence" else "")
    (if t.wg_fence then "+wgfence" else "")

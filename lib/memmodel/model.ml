type t = Sc | Sc_per_location | Relacq_sc_per_location

let all = [ Sc; Relacq_sc_per_location; Sc_per_location ]

let name = function
  | Sc -> "SC"
  | Sc_per_location -> "SC-per-loc"
  | Relacq_sc_per_location -> "rel-acq-SC-per-loc"

let of_string s =
  match String.lowercase_ascii s with
  | "sc" -> Some Sc
  | "sc-per-loc" | "sc-per-location" | "coherence" -> Some Sc_per_location
  | "rel-acq-sc-per-loc" | "relacq" | "rel-acq" -> Some Relacq_sc_per_location
  | _ -> None

(* Every model's hb is [base ∪ com], optionally extended with the
   release/acquire ordering [po ; sw ; po]. This decomposition is shared
   with the oracle's propagation engine, which rebuilds the same edge
   set incrementally: the base is fixed per test, and com/po_sw_po grow
   monotonically as rf and co choices are made. *)
let hb_base = function Sc -> `Po | Sc_per_location | Relacq_sc_per_location -> `Po_loc
let hb_includes_sw = function Relacq_sc_per_location -> true | Sc | Sc_per_location -> false

let hb_of m (r : Execution.relations) =
  let base =
    match hb_base m with `Po -> r.Execution.po | `Po_loc -> r.Execution.po_loc
  in
  let base =
    if hb_includes_sw m then Relation.union base r.Execution.po_sw_po else base
  in
  Relation.union base r.Execution.com

let hb m x = hb_of m (Execution.relations x)

(* The index of [w] in [order], or -1. *)
let rec index_of w k = function
  | [] -> -1
  | w' :: rest -> if w' = w then k else index_of w (k + 1) rest

(* Location [l]'s coherence order in [co]. *)
let rec order_of l = function [] -> [] | (l', ws) :: rest -> if l' = l then ws else order_of l rest

(* The one RMW-placement scan: the id of the first RMW not placed
   immediately after the write it reads from (first, when it reads the
   initial state) in its location's coherence order, or -1 when every
   RMW is. It runs inside [consistent] for every candidate, so it
   allocates nothing. *)
let misplaced_rmw (x : Execution.t) =
  let events = x.Execution.events in
  let n = Array.length events in
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < n do
    (match events.(!i).Event.kind with
    | Event.Rmw { loc; _ } ->
        let order = order_of loc x.Execution.co in
        let position = index_of !i 0 order in
        let expected =
          match x.Execution.rf.(!i) with
          | None -> 0
          | Some src ->
              let k = index_of src 0 order in
              if k < 0 then -1 else k + 1
        in
        if position < 0 || expected < 0 || position <> expected then found := !i
    | Event.Read _ | Event.Write _ | Event.Fence -> ());
    incr i
  done;
  !found

let rmw_atomic x = misplaced_rmw x < 0

let atomicity_violation (x : Execution.t) =
  match misplaced_rmw x with
  | -1 -> None
  | i ->
      let name = Execution.event_name x in
      let src = match x.Execution.rf.(i) with None -> "the initial state" | Some s -> name s in
      let order =
        match Event.loc x.Execution.events.(i) with Some l -> order_of l x.Execution.co | None -> []
      in
      let co_str = String.concat " -> " ("init" :: List.map name order) in
      Some
        (Printf.sprintf "RMW %s reads from %s but is not placed immediately after it in co (%s)"
           (name i) src co_str)

let consistent m x = rmw_atomic x && Relation.is_acyclic (hb m x)
let consistent_with m x r = rmw_atomic x && Relation.is_acyclic (hb_of m r)

let hb_cycle_with m x r =
  match Relation.find_cycle (hb_of m r) with
  | None -> None
  | Some cycle ->
      let names = List.map (Execution.event_name x) cycle in
      let first = match names with [] -> "" | n :: _ -> n in
      Some (String.concat " -> " (names @ [ first ]))

let hb_cycle m x = hb_cycle_with m x (Execution.relations x)

let weaker_or_equal m m' =
  let rank = function Sc_per_location -> 0 | Relacq_sc_per_location -> 1 | Sc -> 2 in
  rank m <= rank m'

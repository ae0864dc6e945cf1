module Event = Mcm_memmodel.Event
module Execution = Mcm_memmodel.Execution
module Model = Mcm_memmodel.Model
module Relation = Mcm_memmodel.Relation
module Cat = Mcm_memmodel.Cat
module Numbers = Mcm_util.Numbers

(* Locations are kept as a sorted assoc list so the enumeration order is
   deterministic. *)
type space = {
  events : Event.t array;
  reads : int list;
  writes_by_loc : (int * int list) list;
}

let space ?layout t =
  let compiled = Litmus.compile ?layout t in
  let events = compiled.Litmus.events in
  let reads = ref [] and by_loc = Hashtbl.create 4 in
  Array.iter
    (fun e ->
      if Event.is_read e then reads := e.Event.id :: !reads;
      if Event.is_write e then
        match Event.loc e with
        | Some l ->
            let cur = try Hashtbl.find by_loc l with Not_found -> [] in
            Hashtbl.replace by_loc l (e.Event.id :: cur)
        | None -> ())
    events;
  {
    events;
    reads = List.rev !reads;
    writes_by_loc =
      List.sort compare (Hashtbl.fold (fun l ws acc -> (l, List.rev ws) :: acc) by_loc []);
  }

let rf_choices sp r =
  match Event.loc sp.events.(r) with
  | None -> [ None ]
  | Some l ->
      let ws = try List.assoc l sp.writes_by_loc with Not_found -> [] in
      None :: List.filter_map (fun w -> if w = r then None else Some (Some w)) ws

let fold ?layout t ~init ~f =
  let sp = space ?layout t in
  let n = Array.length sp.events in
  let rf = Array.make n None in
  let acc = ref init in
  (* Depth-first over per-location coherence orders; at the leaves, emit
     one candidate owning fresh rf/co structures. *)
  let rec over_co locs co_acc =
    match locs with
    | [] ->
        acc := f !acc { Execution.events = sp.events; rf = Array.copy rf; co = List.rev co_acc }
    | (l, ws) :: rest ->
        let rec perms chosen remaining =
          if remaining = [] then over_co rest ((l, List.rev chosen) :: co_acc)
          else
            List.iter
              (fun w -> perms (w :: chosen) (List.filter (fun w' -> w' <> w) remaining))
              remaining
        in
        perms [] ws
  in
  let rec over_rf = function
    | [] -> over_co sp.writes_by_loc []
    | r :: rest ->
        List.iter
          (fun c ->
            rf.(r) <- c;
            over_rf rest)
          (rf_choices sp r)
  in
  over_rf sp.reads;
  !acc

let iter ?layout t ~f = fold ?layout t ~init:() ~f:(fun () x -> f x)

let fold_consistent ?layout m t ~init ~f =
  fold ?layout t ~init ~f:(fun acc x -> if Model.consistent m x then f acc x else acc)

let count ?layout t =
  let sp = space ?layout t in
  let rf =
    List.fold_left (fun acc r -> Numbers.mul_sat acc (List.length (rf_choices sp r))) 1 sp.reads
  in
  List.fold_left
    (fun acc (_, ws) -> Numbers.mul_sat acc (Numbers.factorial_sat (List.length ws)))
    rf sp.writes_by_loc

let count_consistent ?layout m t = fold_consistent ?layout m t ~init:0 ~f:(fun k _ -> k + 1)

let outcomes_where ?layout consistent t =
  fold ?layout t ~init:[] ~f:(fun acc x ->
      if consistent x then Litmus.outcome_of_execution t x :: acc else acc)
  |> List.sort_uniq compare

let outcomes ?layout t = outcomes_where ?layout (fun _ -> true) t
let consistent_outcomes ?layout m t = outcomes_where ?layout (Model.consistent m) t
let consistent_outcomes_cat cat t = outcomes_where (Cat.consistent cat) t

exception Found of Execution.t

(* The first candidate in fold order that is consistent and exhibits the
   target. *)
let first_exhibiting ?layout consistent t =
  match
    iter ?layout t ~f:(fun x ->
        if consistent x && t.Litmus.target (Litmus.outcome_of_execution t x) then raise (Found x))
  with
  | () -> None
  | exception Found x -> Some x

let witness ?layout m t = first_exhibiting ?layout (Model.consistent m) t
let target_allowed ?layout m t = witness ?layout m t <> None
let target_allowed_cat cat t = first_exhibiting (Cat.consistent cat) t <> None

let count_candidates ?layout t =
  (count ?layout t, count_consistent ?layout t.Litmus.model t)

type evidence = Unexhibited | Cycle of string | Atomicity of string | Unexplained

let explain ?layout ?(last = false) m t p =
  let exhibited = ref false and placed_seen = ref false in
  (* The chosen candidate with an hb cycle among placed candidates, the
     one among misplaced candidates (it counts only while no placed one
     has shown up), and the chosen misplaced candidate; only the chosen
     ones are rendered, once, at the end. *)
  let placed_cycle = ref None and misplaced_cycle = ref None and misplaced = ref None in
  let wanted r = last || Option.is_none !r in
  let note_cycle r x =
    if wanted r && not (Relation.is_acyclic (Model.hb m x)) then r := Some x
  in
  iter ?layout t ~f:(fun x ->
      if p (Litmus.outcome_of_execution t x) then begin
        exhibited := true;
        if Model.rmw_atomic x then begin
          placed_seen := true;
          note_cycle placed_cycle x
        end
        else begin
          if wanted misplaced then misplaced := Some x;
          if not !placed_seen then note_cycle misplaced_cycle x
        end
      end);
  if not !exhibited then Unexhibited
  else
    let chosen = if !placed_seen then !placed_cycle else !misplaced_cycle in
    match Option.bind chosen (Model.hb_cycle m) with
    | Some c -> Cycle c
    | None -> (
        match Option.bind !misplaced Model.atomicity_violation with
        | Some v -> Atomicity v
        | None -> Unexplained)

let forbidden_cycle ?layout t =
  let m = t.Litmus.model in
  if target_allowed ?layout m t then None
  else match explain ?layout m t t.Litmus.target with Cycle c -> Some c | _ -> None

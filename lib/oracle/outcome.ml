module Model = Mcm_memmodel.Model
module Execution = Mcm_memmodel.Execution
module Litmus = Mcm_litmus.Litmus
module Enumerate = Mcm_litmus.Enumerate
module Pool = Mcm_util.Pool
module Jsonw = Mcm_util.Jsonw

type set = Litmus.outcome list (* sorted with [compare], duplicate-free *)

let of_outcomes l = List.sort_uniq compare l
let elements s = s
let size = List.length
let mem s o = List.mem o s
let subset a b = List.for_all (fun o -> mem b o) a
let equal (a : set) (b : set) = a = b

let allowed ?(engine = Engine.default) ?layout m t =
  Engine.fold_consistent ?layout engine m t ~init:[] ~f:(fun acc x ->
      Litmus.outcome_of_execution t x :: acc)
  |> of_outcomes

let allowed_grid ?(engine = Engine.default) ?layout ?domains points =
  let arr = Array.of_list points in
  let compute i =
    let m, t = arr.(i) in
    allowed ~engine ?layout m t
  in
  match domains with
  | None | Some 1 -> List.init (Array.length arr) compute
  | Some d ->
      Pool.with_pool ~domains:d (fun pool ->
          Array.to_list (Pool.map_array pool ~n:(Array.length arr) ~f:compute))

exception Found of Execution.t

let witness ?(engine = Engine.default) ?layout m t =
  match
    Engine.iter_consistent ?layout engine m t ~f:(fun x ->
        if t.Litmus.target (Litmus.outcome_of_execution t x) then raise (Found x))
  with
  | () -> None
  | exception Found x -> Some x

let target_allowed ?engine ?layout m t = witness ?engine ?layout m t <> None

let counterexample ?engine ?layout m t o =
  if mem (allowed ?engine ?layout m t) o then None
  else
    Some
      (match Enumerate.explain ?layout ~last:true m t (fun o' -> o' = o) with
      | Enumerate.Unexhibited ->
          Printf.sprintf
            "outcome %s is outside the candidate space: no rf/co assignment produces it"
            (Litmus.outcome_to_string o)
      | Enumerate.Cycle cycle ->
          Printf.sprintf "forbidden %s happens-before cycle: %s" (Model.name m) cycle
      | Enumerate.Atomicity v -> "RMW atomicity violation: " ^ v
      | Enumerate.Unexplained ->
          "inconsistent, but no cycle or atomicity violation found (oracle bug?)")

let outcome_to_json (o : Litmus.outcome) =
  Jsonw.Obj
    [
      ( "regs",
        Jsonw.List
          (Array.to_list
             (Array.map
                (fun regs -> Jsonw.List (Array.to_list (Array.map (fun v -> Jsonw.Int v) regs)))
                o.Litmus.regs)) );
      ("final", Jsonw.List (Array.to_list (Array.map (fun v -> Jsonw.Int v) o.Litmus.final)));
      ("pretty", Jsonw.String (Litmus.outcome_to_string o));
    ]

let to_json s = Jsonw.List (List.map outcome_to_json s)

let pp fmt s =
  List.iter (fun o -> Format.fprintf fmt "%s@." (Litmus.outcome_to_string o)) s

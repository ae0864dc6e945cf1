module Enumerate = Mcm_litmus.Enumerate

type t = Enumerate | Propagate

let all = [ Enumerate; Propagate ]
let default = Propagate
let name = function Enumerate -> "enumerate" | Propagate -> "propagate"

let of_string s =
  match String.lowercase_ascii s with
  | "enumerate" | "brute" | "brute-force" -> Some Enumerate
  | "propagate" | "propagation" | "prune" -> Some Propagate
  | _ -> None

let fold_consistent ?layout engine m t ~init ~f =
  match engine with
  | Enumerate -> Enumerate.fold_consistent ?layout m t ~init ~f
  | Propagate -> Propagate.fold_consistent ?layout m t ~init ~f

let iter_consistent ?layout engine m t ~f =
  match engine with
  | Enumerate ->
      Enumerate.iter ?layout t ~f:(fun x -> if Mcm_memmodel.Model.consistent m x then f x)
  | Propagate -> Propagate.iter_consistent ?layout m t ~f

let count_consistent ?layout engine m t =
  match engine with
  | Enumerate -> Enumerate.count_consistent ?layout m t
  | Propagate -> Propagate.count_consistent ?layout m t

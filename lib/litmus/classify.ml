module Model = Mcm_memmodel.Model
module Execution = Mcm_memmodel.Execution

type behaviour = Sequential | Interleaved | Weak | Forbidden

let behaviour_name = function
  | Sequential -> "sequential"
  | Interleaved -> "interleaved"
  | Weak -> "weak"
  | Forbidden -> "forbidden"

(* Execute the threads one after another in the given order with a plain
   sequential memory: loads read the current value, stores replace it. *)
let run_sequentially test order =
  let memory = Array.make test.Litmus.nlocs 0 in
  let outcome = Litmus.empty_outcome test in
  List.iter
    (fun tid ->
      List.iter
        (fun instr ->
          match instr with
          | Instr.Load { reg; loc; _ } -> outcome.Litmus.regs.(tid).(reg) <- memory.(loc)
          | Instr.Store { loc; value; _ } -> memory.(loc) <- value
          | Instr.Rmw { reg; loc; value; _ } ->
              outcome.Litmus.regs.(tid).(reg) <- memory.(loc);
              memory.(loc) <- value
          | Instr.Fence _ -> ())
        test.Litmus.threads.(tid))
    order;
  Array.blit memory 0 outcome.Litmus.final 0 test.Litmus.nlocs;
  outcome

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

let sequential_outcomes test =
  let tids = List.init (Litmus.nthreads test) (fun i -> i) in
  List.sort_uniq compare (List.map (run_sequentially test) (permutations tids))

let work test =
  max (Enumerate.count test) (Mcm_util.Numbers.factorial_sat (Litmus.nthreads test))

(* One pass over the candidates: every outcome, and those consistent
   under SC and under the test's own model, both checked against one set
   of relations per candidate. *)
let outcome_sets test =
  let m = test.Litmus.model in
  let all, sc, allowed =
    Enumerate.fold test ~init:([], [], []) ~f:(fun (all, sc, allowed) x ->
        let o = Litmus.outcome_of_execution test x in
        if not (Model.rmw_atomic x) then (o :: all, sc, allowed)
        else
          let r = Execution.relations x in
          let sc_ok = Model.consistent_with Model.Sc x r in
          let ok = if m = Model.Sc then sc_ok else Model.consistent_with m x r in
          (o :: all, (if sc_ok then o :: sc else sc), if ok then o :: allowed else allowed))
  in
  (List.sort_uniq compare all, List.sort_uniq compare sc, List.sort_uniq compare allowed)

let classifier test =
  let sequential = sequential_outcomes test in
  let all, sc, allowed = outcome_sets test in
  let table = Hashtbl.create 32 in
  (* Later insertions must not override stronger classifications, so fill
     from weakest knowledge to strongest. *)
  List.iter
    (fun o ->
      let b =
        if List.mem o sequential then Sequential
        else if List.mem o sc then Interleaved
        else if List.mem o allowed then Weak
        else Forbidden
      in
      Hashtbl.replace table o b)
    all;
  (* [find] rather than [find_opt]: a hit returns the stored constant
     without boxing it in an option, once per classified instance. *)
  fun outcome -> match Hashtbl.find table outcome with b -> b | exception Not_found -> Forbidden

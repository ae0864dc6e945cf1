module Model = Mcm_memmodel.Model
module Execution = Mcm_memmodel.Execution
module Litmus = Mcm_litmus.Litmus
module Instr = Mcm_litmus.Instr
module Enumerate = Mcm_litmus.Enumerate

type polarity = Conformance | Mutant

type pattern = Execution.t -> Execution.relations -> bool

let outcome_set_to_string outcomes =
  let rendered = List.map Litmus.outcome_to_string outcomes in
  match rendered with
  | [ one ] -> one
  | many when List.length many <= 4 -> "one of: " ^ String.concat " ; " many
  | many ->
      let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> [] in
      Printf.sprintf "one of %d outcomes, e.g.: %s ; ..." (List.length many)
        (String.concat " ; " (take 3 many))

let diff_outcomes a b = List.filter (fun o -> not (List.mem o b)) a
let inter_outcomes a b = List.filter (fun o -> List.mem o b) a

let derive ~name ~family ~model ~nlocs ~pattern ~polarity threads =
  let probe =
    {
      Litmus.name;
      family;
      model;
      threads;
      nlocs;
      target = (fun _ -> false);
      target_desc = "(deriving)";
    }
  in
  match Litmus.well_formed probe with
  | Error e -> Error (Printf.sprintf "%s: ill-formed: %s" name e)
  | Ok () ->
      let all = ref [] and matching = ref [] in
      let consistent = ref [] and consistent_off_pattern = ref [] in
      Enumerate.iter probe ~f:(fun x ->
          let outcome = Litmus.outcome_of_execution probe x in
          let r = Execution.relations x in
          let matches = pattern x r in
          all := outcome :: !all;
          if matches then matching := outcome :: !matching;
          if Model.consistent_with model x r then begin
            consistent := outcome :: !consistent;
            if not matches then consistent_off_pattern := outcome :: !consistent_off_pattern
          end);
      let all = List.sort_uniq compare !all in
      let matching = List.sort_uniq compare !matching in
      let consistent = List.sort_uniq compare !consistent in
      let consistent_off_pattern = List.sort_uniq compare !consistent_off_pattern in
      let target_set =
        match polarity with
        | Conformance ->
            (* Any outcome no consistent execution can produce witnesses a
               violation; the pattern-specific check below guarantees the
               template's own cycle is among the detectable ones. *)
            if diff_outcomes matching consistent = [] then []
            else diff_outcomes all consistent
        | Mutant ->
            (* Outcomes that, among consistent executions, uniquely witness
               the formerly-forbidden pattern: observing one kills the
               mutant without ambiguity. *)
            diff_outcomes (inter_outcomes matching consistent) consistent_off_pattern
      in
      if target_set = [] then
        Error
          (Printf.sprintf "%s: empty %s target set (%d pattern outcomes, %d consistent)" name
             (match polarity with Conformance -> "conformance" | Mutant -> "mutant")
             (List.length matching) (List.length consistent))
      else
        Ok
          {
            probe with
            Litmus.target = (fun o -> Litmus.outcome_mem o target_set);
            target_desc = outcome_set_to_string target_set;
          }

let derive_first ~name ~family ~model ~nlocs ~pattern ~polarity variants =
  let rec go last_error = function
    | [] -> Error last_error
    | threads :: rest -> (
        match derive ~name ~family ~model ~nlocs ~pattern ~polarity threads with
        | Ok t -> Ok t
        | Error e -> go e rest)
  in
  go (Printf.sprintf "%s: no program variants" name) variants

let observer_thread ~obs_loc n_reads =
  List.init n_reads (fun r -> Instr.load ~reg:r ~loc:obs_loc ())

let observer_ladder ?(require_observer = false) ~obs_loc threads =
  let with_observer n = Array.append threads [| observer_thread ~obs_loc n |] in
  let base = if require_observer then [] else [ threads ] in
  base @ [ with_observer 2; with_observer 3 ]

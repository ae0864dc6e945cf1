module Model = Mcm_memmodel.Model
module Litmus = Mcm_litmus.Litmus
module Library = Mcm_litmus.Library
module Classify = Mcm_litmus.Classify
module Enumerate = Mcm_litmus.Enumerate
module Suite = Mcm_core.Suite
module Mutator = Mcm_core.Mutator
module Pool = Mcm_util.Pool
module Jsonw = Mcm_util.Jsonw

type verdict = {
  test : string;
  model : Model.t;
  role : string;
  ok : bool;
  detail : string;
}

type report = { verdicts : verdict list; failures : int }

(* Evidence that a disallowed target is *meaningfully* disallowed: some
   candidate exhibits it (so the behaviour is expressible), and every
   such candidate is inconsistent. *)
let forbidden_evidence ?layout m t =
  match Enumerate.explain ?layout ~last:true m t t.Litmus.target with
  | Enumerate.Unexhibited -> Error "vacuous: no candidate execution exhibits the target at all"
  | Enumerate.Cycle cycle -> Ok (Printf.sprintf "forbidden hb cycle: %s" cycle)
  | Enumerate.Atomicity v -> Ok ("RMW atomicity violation: " ^ v)
  | Enumerate.Unexplained ->
      Error "exhibiting candidates are neither cyclic nor atomicity-violating"

let conformance ?engine ?layout t =
  let m = t.Litmus.model in
  let base = { test = t.Litmus.name; model = m; role = "conformance"; ok = false; detail = "" } in
  match Outcome.witness ?engine ?layout m t with
  | Some x ->
      {
        base with
        detail =
          Printf.sprintf "target is ALLOWED under %s (witness: %s) but must be disallowed"
            (Model.name m)
            (Litmus.outcome_to_string (Litmus.outcome_of_execution t x));
      }
  | None -> (
      match forbidden_evidence ?layout m t with
      | Ok evidence -> { base with ok = true; detail = evidence }
      | Error reason -> { base with detail = reason })

let mutant ?engine ?layout ?(role = "mutant") t =
  let m = t.Litmus.model in
  let base = { test = t.Litmus.name; model = m; role; ok = false; detail = "" } in
  match Outcome.witness ?engine ?layout m t with
  | None ->
      {
        base with
        detail =
          Printf.sprintf "target is DISALLOWED under %s but a mutant's target must be allowed"
            (Model.name m);
      }
  | Some x -> (
      (* Non-vacuity: a serial (whole-thread-at-a-time) execution must
         not exhibit the target, or the mutant dies for free. *)
      match List.find_opt t.Litmus.target (Classify.sequential_outcomes t) with
      | Some o ->
          {
            base with
            detail =
              Printf.sprintf "vacuous: serial execution already exhibits the target (%s)"
                (Litmus.outcome_to_string o);
          }
      | None ->
          {
            base with
            ok = true;
            detail =
              Printf.sprintf "allowed; witness: %s"
                (Litmus.outcome_to_string (Litmus.outcome_of_execution t x));
          })

let of_verdicts verdicts =
  { verdicts; failures = List.length (List.filter (fun v -> not v.ok) verdicts) }

(* Shard one verdict function over an input array via the domain pool;
   map_array stores results positionally, so the report order (and hence
   the whole report) is independent of the domain count. *)
let grid ?domains ~f inputs =
  let arr = Array.of_list inputs in
  let verdicts =
    match domains with
    | None | Some 1 -> Array.to_list (Array.init (Array.length arr) (fun i -> f arr.(i)))
    | Some d ->
        Pool.with_pool ~domains:d (fun pool ->
            Array.to_list (Pool.map_array pool ~n:(Array.length arr) ~f:(fun i -> f arr.(i))))
  in
  of_verdicts verdicts

let suite ?engine ?domains () =
  grid ?domains (Suite.all ()) ~f:(fun (e : Suite.entry) ->
      match e.Suite.role with
      | Suite.Conformance -> conformance ?engine e.Suite.test
      | Suite.Mutant_of parent ->
          let v = mutant ?engine ~role:("mutant of " ^ parent) e.Suite.test in
          if v.ok then
            { v with detail = v.detail ^ "; disruption: " ^ Mutator.disruption e.Suite.mutator }
          else v)

let library ?engine ?domains () =
  grid ?domains Library.all ~f:(fun t ->
      match Library.expectation t with
      | Some `Disallowed -> { (conformance ?engine t) with role = "library" }
      | Some `Allowed | None -> (
          let m = t.Litmus.model in
          let base = { test = t.Litmus.name; model = m; role = "library"; ok = false; detail = "" } in
          match Outcome.witness ?engine m t with
          | Some x ->
              {
                base with
                ok = true;
                detail =
                  Printf.sprintf "allowed; witness: %s"
                    (Litmus.outcome_to_string (Litmus.outcome_of_execution t x));
              }
          | None ->
              {
                base with
                detail =
                  Printf.sprintf "target is DISALLOWED under %s but the library documents it allowed"
                    (Model.name m);
              }))

let verdict_to_json v =
  Jsonw.Obj
    [
      ("test", Jsonw.String v.test);
      ("model", Jsonw.String (Model.name v.model));
      ("role", Jsonw.String v.role);
      ("ok", Jsonw.Bool v.ok);
      ("detail", Jsonw.String v.detail);
    ]

let report_to_json r =
  Jsonw.Obj
    [
      ("certified", Jsonw.Int (List.length r.verdicts - r.failures));
      ("failures", Jsonw.Int r.failures);
      ("verdicts", Jsonw.List (List.map verdict_to_json r.verdicts));
    ]

let pp_report fmt r =
  List.iter
    (fun v ->
      if not v.ok then
        Format.fprintf fmt "FAIL %-24s (%s, %s): %s@." v.test v.role (Model.name v.model) v.detail)
    r.verdicts;
  Format.fprintf fmt "%d/%d certificates ok@."
    (List.length r.verdicts - r.failures)
    (List.length r.verdicts)

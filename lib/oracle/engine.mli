(** Oracle engine selection.

    The oracle has two interchangeable engines over the same candidate
    space: [Enumerate], the brute-force reference
    ({!Mcm_litmus.Enumerate}) that visits every candidate and filters
    through [Model.consistent], and {!Propagate}, the
    constraint-propagation engine that prunes inconsistent subtrees as
    choices are made. Both produce bit-identical consistent-execution
    streams (same executions, same order — see {!Propagate}), so engine
    choice is purely a cost decision; {!Outcome}, {!Certify} and
    {!Soundness} default to [Propagate] and keep [Enumerate] available
    as the always-on differential reference. *)

type t = Enumerate | Propagate

val all : t list
val default : t
(** [Propagate]. *)

val name : t -> string
(** ["enumerate"] / ["propagate"] — the CLI and JSON spelling. *)

val of_string : string -> t option
(** Parses [name] output (case-insensitive); also accepts the aliases
    ["brute"], ["brute-force"], ["propagation"], ["prune"]. *)

val fold_consistent :
  ?layout:Mcm_memmodel.Scope.layout ->
  t ->
  Mcm_memmodel.Model.t ->
  Mcm_litmus.Litmus.t ->
  init:'a ->
  f:('a -> Mcm_memmodel.Execution.t -> 'a) ->
  'a
(** Dispatches to the selected engine's consistent fold. *)

val iter_consistent :
  ?layout:Mcm_memmodel.Scope.layout ->
  t ->
  Mcm_memmodel.Model.t ->
  Mcm_litmus.Litmus.t ->
  f:(Mcm_memmodel.Execution.t -> unit) ->
  unit
(** Dispatches to the selected engine's consistent iteration; exceptions
    raised by [f] escape (used for first-witness early exit). *)

val count_consistent :
  ?layout:Mcm_memmodel.Scope.layout -> t -> Mcm_memmodel.Model.t -> Mcm_litmus.Litmus.t -> int
(** Dispatches to the selected engine's consistent count. *)

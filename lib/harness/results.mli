(** Tuning results and every metric computed from them.

    The published artifact stores each tuning run as a JSON file and
    ships an [analysis.py] with three actions — mutation scores, merging
    test environments, and correlation — over those files (Appendix A.6).
    This module is that pipeline and the one place the paper's metrics
    are computed: a rate table {!t} is built once, from a sweep
    ({!of_runs}) or from a saved file ({!load}), and Figs. 5 and 6, the
    CTS curation and the three analysis actions all read it. Each metric
    ranges over the devices and tests the table holds. *)

(** One (category, environment, device, test) measurement, in a form
    that survives serialisation. *)
type record = {
  category : string;  (** e.g. ["PTE"] — see {!Tuning.category_name} *)
  env_index : int;
  device : string;
  test : string;
  mutator : string;  (** the generating mutator's name, or ["-"] *)
  kills : int;
  instances : int;
  iterations : int;
  sim_time_s : float;
  rate : float;
}

type t
(** A rate table: records indexed by (category, test, device,
    environment index) with constant-time lookup. Immutable. *)

val of_records : record list -> t
(** Index records. Of several records under one key the table keeps the
    first, as a scan for the first match would find. *)

val of_runs : Tuning.run list -> t
(** Index a sweep. *)

val records : t -> record list
(** The table's records in input order, repeats dropped. *)

val to_json : t -> Mcm_util.Jsonw.t

val of_json : Mcm_util.Jsonw.t -> (t, string) result
(** Refuses a file holding two records under one key, naming the key. *)

val save : string -> t -> (unit, string) result
(** [save path t] writes the JSON file. *)

val load : string -> (t, string) result
(** [load path] parses a file written by {!save}. Every error names
    [path] once. *)

val devices : t -> string list
(** Distinct device names, in first-appearance order. *)

val tests : t -> string list
(** Distinct test names, in first-appearance order. *)

val rate : t -> category:string -> test:string -> device:string -> env_index:int -> float
(** The death rate under one key; [0.] when absent. *)

val score : t -> category:string -> ?mutator:string -> ?device:string -> unit -> float
(** Mutation score: the fraction of the category's tests (those of
    [mutator] when given) that some environment killed on [device], or
    that fraction averaged over the category's devices. *)

val death_rate : t -> category:string -> ?mutator:string -> ?device:string -> unit -> float
(** Average death rate: the mean over the same tests of each test's best
    rate across the category's environments, per device or averaged. *)

(** [analysis.py --action mutation-score]: {!score} and {!death_rate}
    per mutator plus a combined row, for one category, averaged across
    its devices. Rows are [(label, score, avg_rate)]. *)
val mutation_score : t -> category:string -> (string * float * float) list

val sim_time : t -> category:string -> float
(** Simulated seconds summed over the category's records: its tuning
    cost (Sec. 5.1). *)

val choose :
  t ->
  category:string ->
  test:string ->
  target:float ->
  budget:float ->
  Mcm_core.Merge.choice option
(** Algorithm 1's environment for one test, over the category's devices
    and environments ({!Mcm_core.Merge.choose}). *)

(** [analysis.py --action merge]: the fraction of the category's tests
    whose environment from {!choose} reaches the ceiling rate on every
    device. *)
val merge_score : t -> category:string -> target:float -> budget:float -> float

(** [analysis.py --action correlation]: the Pearson correlation matrix
    between the named tests' rates across environments (and devices) of
    one category. Returns the matrix in the order of [tests]; entries
    are [nan] when degenerate. *)
val correlation_matrix : t -> category:string -> tests:string list -> float array array

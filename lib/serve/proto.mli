(** The campaign service wire protocol.

    Line-delimited JSON (JSONL): every message is one compact JSON
    object followed by ['\n'], written with {!Mcm_util.Jsonw} and parsed
    with {!Mcm_util.Jsonp} — the same codecs the store uses, so the
    protocol inherits their escaping rules (control characters as
    [\uXXXX], non-finite floats as the strings ["nan"]/["inf"]/["-inf"])
    and their round-trip stability: [to_line (of_line l) = l] for every
    line this module emits.

    Clients speak {!client_msg}; the daemon answers with {!server_msg}
    events. A session opens with [Hello]/[Welcome], whose protocol and
    {!Mcm_campaign.Key.code_version} fields let a client refuse a daemon
    it cannot trust (a key-version mismatch means the daemon's cache
    keys are computed differently — results would be valid but never
    shared).

    A {!cell} is a campaign-cell descriptor: unlike
    {!Mcm_testenv.Request.to_json} (whose test serialization is a
    one-way content blob), it names the test (suite/library name, or an
    inline litmus source for tests the daemon has never seen) so the
    daemon can reconstruct the full {!Mcm_testenv.Request.t} — and
    therefore the store key — server-side. *)

val protocol_version : int
(** Bumped on any wire-incompatible change. *)

(** {2 Campaign-cell descriptors} *)

type test_ref =
  | Name of string  (** resolved against the generated suite, then the classic library *)
  | Source of string  (** inline textual litmus source ({!Mcm_litmus.Parse}) *)

type cell = {
  c_test : test_ref;
  c_device : string;  (** device profile short name (nvidia|amd|intel|m1) *)
  c_bugs : bool;  (** inject the profile's paper bug *)
  c_env : Mcm_testenv.Params.t;
  c_iterations : int;
  c_seed : int;
  c_engine : Mcm_testenv.Request.engine;
}

(** {2 Messages} *)

type client_msg =
  | Hello of { client : string; protocol : int }
  | Submit of { id : string; kind : string; priority : int; cells : cell list }
      (** [id] is the client's correlation id for the whole grid; [kind]
          selects the collector payload shape (["run"], ["histogram"],
          ["outcomes"]); higher [priority] runs first. *)
  | Watch  (** subscribe to [Progress] events *)
  | Report  (** per-test/per-device/per-env service counters *)
  | Queue  (** queued and in-flight cell listing, plus the live worker domains *)
  | Drain  (** stop accepting new submissions; finish what is queued *)
  | Shutdown  (** graceful stop: flush the store, farewell every client *)
  | Ping

type server_msg =
  | Welcome of { protocol : int; key_version : string; server : string }
  | Ack of { id : string; total : int; hits : int; queued : int; joined : int }
      (** submission receipt: of [total] cells, [hits] answered from the
          store instantly, [joined] deduplicated onto identical cells
          already queued or running (possibly by other clients), and
          [queued] newly enqueued. *)
  | Result of { id : string; cell : int; key : string; cached : bool; payload : Mcm_util.Jsonw.t }
      (** one cell's result payload (the store payload, verbatim).
          [cached] is false iff this daemon computed it just now. *)
  | Done of { id : string }  (** every cell of submission [id] has been delivered *)
  | Progress of { queued : int; inflight : int; clients : int; served : int; computed : int }
  | Reply of { op : string; data : Mcm_util.Jsonw.t }  (** [Report]/[Queue] answers *)
  | Pong
  | Bye of { reason : string }
  | Error of { id : string option; message : string }

(** {2 Codecs} *)

val cell_to_json : cell -> Mcm_util.Jsonw.t
val max_grid_threads : int
(** [1_048_576]: the most threads ([testingWorkgroups ×
    threadsPerWorkgroup]) a cell's grid may have — 4× the largest grid
    the paper's tuning draws (1024 × 256). Fixed, not configurable: the
    grid sizes per-domain buffers, so the daemon refuses larger ones at
    decode rather than exhaust its memory. *)

val cell_of_json : Mcm_util.Jsonw.t -> (cell, string) result
(** Errors name the offending field. Beyond shape and type, a cell's
    env must pass {!Mcm_testenv.Params.of_json} (which refuses empty
    layouts), its grid must not exceed {!max_grid_threads} (the error
    names both [testingWorkgroups] and [threadsPerWorkgroup]), and its
    [iterations] must be non-negative. *)

val client_to_json : client_msg -> Mcm_util.Jsonw.t
val client_of_json : Mcm_util.Jsonw.t -> (client_msg, string) result
val server_to_json : server_msg -> Mcm_util.Jsonw.t
val server_of_json : Mcm_util.Jsonw.t -> (server_msg, string) result

val client_to_line : client_msg -> string
(** Compact JSON plus the trailing newline. *)

val server_to_line : server_msg -> string

val client_of_line : string -> (client_msg, string) result
(** Parses one line (with or without its newline). *)

val server_of_line : string -> (server_msg, string) result

(** {2 Framing}

    Incremental line splitter for the receive side of a socket: feed it
    chunks as they arrive, get back the complete lines they finish. A
    partial trailing line is buffered until its newline arrives. *)
module Frame : sig
  type t

  val create : unit -> t

  val feed : t -> string -> string list
  (** [feed t chunk] returns the complete lines (newline stripped)
      terminated within [chunk], oldest first. *)

  val pending : t -> int
  (** Bytes buffered waiting for a newline. *)
end

module Jsonw = Mcm_util.Jsonw
module Jsonp = Mcm_util.Jsonp
module Params = Mcm_testenv.Params
module Request = Mcm_testenv.Request

let protocol_version = 1

type test_ref = Name of string | Source of string

type cell = {
  c_test : test_ref;
  c_device : string;
  c_bugs : bool;
  c_env : Params.t;
  c_iterations : int;
  c_seed : int;
  c_engine : Request.engine;
}

type client_msg =
  | Hello of { client : string; protocol : int }
  | Submit of { id : string; kind : string; priority : int; cells : cell list }
  | Watch
  | Report
  | Queue
  | Drain
  | Shutdown
  | Ping

type server_msg =
  | Welcome of { protocol : int; key_version : string; server : string }
  | Ack of { id : string; total : int; hits : int; queued : int; joined : int }
  | Result of { id : string; cell : int; key : string; cached : bool; payload : Jsonw.t }
  | Done of { id : string }
  | Progress of { queued : int; inflight : int; clients : int; served : int; computed : int }
  | Reply of { op : string; data : Jsonw.t }
  | Pong
  | Bye of { reason : string }
  | Error of { id : string option; message : string }

(* ------------------------------------------------------------------ *)
(* Field accessors over parsed JSON                                     *)

let ( let* ) = Result.bind

let str_field name v =
  match Option.bind (Jsonp.member name v) Jsonp.to_string_opt with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or non-string %S" name)

let int_field name v =
  match Option.bind (Jsonp.member name v) Jsonp.to_int with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "missing or non-integer %S" name)

let bool_field name v =
  match Jsonp.member name v with
  | Some (Jsonw.Bool b) -> Ok b
  | _ -> Error (Printf.sprintf "missing or non-boolean %S" name)

let json_field name v =
  match Jsonp.member name v with
  | Some j -> Ok j
  | None -> Error (Printf.sprintf "missing field %S" name)

(* ------------------------------------------------------------------ *)
(* Cells                                                                *)

let cell_to_json c =
  let test =
    match c.c_test with
    | Name n -> Jsonw.Obj [ ("name", Jsonw.String n) ]
    | Source s -> Jsonw.Obj [ ("litmus", Jsonw.String s) ]
  in
  Jsonw.Obj
    [
      ("test", test);
      ("device", Jsonw.String c.c_device);
      ("bugs", Jsonw.Bool c.c_bugs);
      ("env", Params.to_json c.c_env);
      ("iterations", Jsonw.Int c.c_iterations);
      ("seed", Jsonw.Int c.c_seed);
      ("engine", Jsonw.String (Request.engine_name c.c_engine));
    ]

(* 4x the largest grid the paper's tuning draws (1024 workgroups of 256
   threads). A cell's grid sizes the runner's per-domain buffers, so a
   larger one would exhaust memory or raise out of the daemon's loop. *)
let max_grid_threads = 1_048_576

(* [a * b <= max_grid_threads] for positive [a] and [b], without
   computing the (possibly overflowing) product. *)
let grid_within_limit (env : Params.t) =
  env.Params.testing_workgroups <= max_grid_threads / env.Params.threads_per_workgroup

let cell_of_json v =
  let* test_obj = json_field "test" v in
  let* c_test =
    match
      ( Option.bind (Jsonp.member "name" test_obj) Jsonp.to_string_opt,
        Option.bind (Jsonp.member "litmus" test_obj) Jsonp.to_string_opt )
    with
    | Some n, _ -> Ok (Name n)
    | None, Some s -> Ok (Source s)
    | None, None -> Error "cell \"test\" needs a \"name\" or \"litmus\" field"
  in
  let* c_device = str_field "device" v in
  let* c_bugs = bool_field "bugs" v in
  let* env_json = json_field "env" v in
  let* c_env = Params.of_json env_json in
  let* () =
    if grid_within_limit c_env then Ok ()
    else
      Error
        (Printf.sprintf
           "cell env: \"testingWorkgroups\" (%d) x \"threadsPerWorkgroup\" (%d) exceeds the \
            limit of %d threads per grid"
           c_env.Params.testing_workgroups c_env.Params.threads_per_workgroup max_grid_threads)
  in
  let* c_iterations = int_field "iterations" v in
  let* () =
    if c_iterations >= 0 then Ok ()
    else Error (Printf.sprintf "cell \"iterations\" must be non-negative, got %d" c_iterations)
  in
  let* c_seed = int_field "seed" v in
  let* engine_name = str_field "engine" v in
  let* c_engine =
    match Request.engine_of_name engine_name with
    | Some e -> Ok e
    | None -> Error (Printf.sprintf "unknown engine %S" engine_name)
  in
  Ok { c_test; c_device; c_bugs; c_env; c_iterations; c_seed; c_engine }

(* ------------------------------------------------------------------ *)
(* Client messages                                                      *)

let client_to_json = function
  | Hello { client; protocol } ->
      Jsonw.Obj
        [
          ("op", Jsonw.String "hello");
          ("client", Jsonw.String client);
          ("protocol", Jsonw.Int protocol);
        ]
  | Submit { id; kind; priority; cells } ->
      Jsonw.Obj
        [
          ("op", Jsonw.String "submit");
          ("id", Jsonw.String id);
          ("kind", Jsonw.String kind);
          ("priority", Jsonw.Int priority);
          ("cells", Jsonw.List (List.map cell_to_json cells));
        ]
  | Watch -> Jsonw.Obj [ ("op", Jsonw.String "watch") ]
  | Report -> Jsonw.Obj [ ("op", Jsonw.String "report") ]
  | Queue -> Jsonw.Obj [ ("op", Jsonw.String "queue") ]
  | Drain -> Jsonw.Obj [ ("op", Jsonw.String "drain") ]
  | Shutdown -> Jsonw.Obj [ ("op", Jsonw.String "shutdown") ]
  | Ping -> Jsonw.Obj [ ("op", Jsonw.String "ping") ]

let client_of_json v =
  let* op = str_field "op" v in
  match op with
  | "hello" ->
      let* client = str_field "client" v in
      let* protocol = int_field "protocol" v in
      Ok (Hello { client; protocol })
  | "submit" ->
      let* id = str_field "id" v in
      let* kind = str_field "kind" v in
      let* priority = int_field "priority" v in
      let* cells_json = json_field "cells" v in
      let rec decode_all i acc = function
        | [] -> Ok (List.rev acc)
        | c :: rest -> (
            match cell_of_json c with
            | Ok cell -> decode_all (i + 1) (cell :: acc) rest
            | Error e -> Error (Printf.sprintf "cell %d: %s" i e))
      in
      let* cells = decode_all 0 [] (Jsonp.to_list cells_json) in
      Ok (Submit { id; kind; priority; cells })
  | "watch" -> Ok Watch
  | "report" -> Ok Report
  | "queue" -> Ok Queue
  | "drain" -> Ok Drain
  | "shutdown" -> Ok Shutdown
  | "ping" -> Ok Ping
  | other -> Error (Printf.sprintf "unknown op %S" other)

(* ------------------------------------------------------------------ *)
(* Server messages                                                      *)

let server_to_json = function
  | Welcome { protocol; key_version; server } ->
      Jsonw.Obj
        [
          ("ev", Jsonw.String "welcome");
          ("protocol", Jsonw.Int protocol);
          ("keyVersion", Jsonw.String key_version);
          ("server", Jsonw.String server);
        ]
  | Ack { id; total; hits; queued; joined } ->
      Jsonw.Obj
        [
          ("ev", Jsonw.String "ack");
          ("id", Jsonw.String id);
          ("total", Jsonw.Int total);
          ("hits", Jsonw.Int hits);
          ("queued", Jsonw.Int queued);
          ("joined", Jsonw.Int joined);
        ]
  | Result { id; cell; key; cached; payload } ->
      Jsonw.Obj
        [
          ("ev", Jsonw.String "result");
          ("id", Jsonw.String id);
          ("cell", Jsonw.Int cell);
          ("key", Jsonw.String key);
          ("cached", Jsonw.Bool cached);
          ("payload", payload);
        ]
  | Done { id } -> Jsonw.Obj [ ("ev", Jsonw.String "done"); ("id", Jsonw.String id) ]
  | Progress { queued; inflight; clients; served; computed } ->
      Jsonw.Obj
        [
          ("ev", Jsonw.String "progress");
          ("queued", Jsonw.Int queued);
          ("inflight", Jsonw.Int inflight);
          ("clients", Jsonw.Int clients);
          ("served", Jsonw.Int served);
          ("computed", Jsonw.Int computed);
        ]
  | Reply { op; data } ->
      Jsonw.Obj [ ("ev", Jsonw.String "reply"); ("op", Jsonw.String op); ("data", data) ]
  | Pong -> Jsonw.Obj [ ("ev", Jsonw.String "pong") ]
  | Bye { reason } -> Jsonw.Obj [ ("ev", Jsonw.String "bye"); ("reason", Jsonw.String reason) ]
  | Error { id; message } ->
      Jsonw.Obj
        (("ev", Jsonw.String "error")
        :: (match id with Some id -> [ ("id", Jsonw.String id) ] | None -> [])
        @ [ ("message", Jsonw.String message) ])

let server_of_json v =
  let* ev = str_field "ev" v in
  match ev with
  | "welcome" ->
      let* protocol = int_field "protocol" v in
      let* key_version = str_field "keyVersion" v in
      let* server = str_field "server" v in
      Ok (Welcome { protocol; key_version; server })
  | "ack" ->
      let* id = str_field "id" v in
      let* total = int_field "total" v in
      let* hits = int_field "hits" v in
      let* queued = int_field "queued" v in
      let* joined = int_field "joined" v in
      Ok (Ack { id; total; hits; queued; joined })
  | "result" ->
      let* id = str_field "id" v in
      let* cell = int_field "cell" v in
      let* key = str_field "key" v in
      let* cached = bool_field "cached" v in
      let* payload = json_field "payload" v in
      Ok (Result { id; cell; key; cached; payload })
  | "done" ->
      let* id = str_field "id" v in
      Ok (Done { id })
  | "progress" ->
      let* queued = int_field "queued" v in
      let* inflight = int_field "inflight" v in
      let* clients = int_field "clients" v in
      let* served = int_field "served" v in
      let* computed = int_field "computed" v in
      Ok (Progress { queued; inflight; clients; served; computed })
  | "reply" ->
      let* op = str_field "op" v in
      let* data = json_field "data" v in
      Ok (Reply { op; data })
  | "pong" -> Ok Pong
  | "bye" ->
      let* reason = str_field "reason" v in
      Ok (Bye { reason })
  | "error" ->
      let id = Option.bind (Jsonp.member "id" v) Jsonp.to_string_opt in
      let* message = str_field "message" v in
      Ok (Error { id; message })
  | other -> Error (Printf.sprintf "unknown ev %S" other)

(* ------------------------------------------------------------------ *)
(* Lines and framing                                                    *)

let client_to_line m = Jsonw.to_string (client_to_json m) ^ "\n"
let server_to_line m = Jsonw.to_string (server_to_json m) ^ "\n"

let strip_newline line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\n' then String.sub line 0 (n - 1) else line

let of_line decode line =
  match Jsonp.parse (strip_newline line) with Error e -> Result.Error e | Ok v -> decode v

let client_of_line line = of_line client_of_json line
let server_of_line line = of_line server_of_json line

module Frame = struct
  type t = { mutable buf : Buffer.t }

  let create () = { buf = Buffer.create 256 }

  let feed t chunk =
    Buffer.add_string t.buf chunk;
    let content = Buffer.contents t.buf in
    let lines = ref [] in
    let pos = ref 0 in
    let len = String.length content in
    let continue = ref true in
    while !continue do
      match String.index_from_opt content !pos '\n' with
      | Some i when i < len ->
          lines := String.sub content !pos (i - !pos) :: !lines;
          pos := i + 1
      | _ -> continue := false
    done;
    if !pos > 0 then begin
      let rest = String.sub content !pos (len - !pos) in
      Buffer.clear t.buf;
      Buffer.add_string t.buf rest
    end;
    List.rev !lines

  let pending t = Buffer.length t.buf
end

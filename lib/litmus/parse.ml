module Model = Mcm_memmodel.Model
module Scope = Mcm_memmodel.Scope

(* ------------------------------------------------------------------ *)
(* Target condition expressions                                         *)

(* Atoms name their thread and location: strings as parsed, indices
   once [parse] has resolved them. *)
type ('thread, 'loc) expr =
  | Const of bool
  | Atom_reg of 'thread * int * int  (* thread, register, value *)
  | Atom_final of 'loc * int  (* location, value *)
  | Not of ('thread, 'loc) expr
  | And of ('thread, 'loc) expr * ('thread, 'loc) expr
  | Or of ('thread, 'loc) expr * ('thread, 'loc) expr

(* Left to right, so a resolution error names the first bad atom. *)
let rec map_atoms ~thread ~loc = function
  | Const b -> Const b
  | Not e -> Not (map_atoms ~thread ~loc e)
  | And (a, b) ->
      let a = map_atoms ~thread ~loc a in
      And (a, map_atoms ~thread ~loc b)
  | Or (a, b) ->
      let a = map_atoms ~thread ~loc a in
      Or (a, map_atoms ~thread ~loc b)
  | Atom_reg (t, reg, value) -> Atom_reg (thread t, reg, value)
  | Atom_final (l, value) -> Atom_final (loc l, value)

exception Syntax of string

let fail fmt = Printf.ksprintf (fun s -> raise (Syntax s)) fmt

(* Expression lexer: identifiers (including P0:r1 atoms), numbers, and
   the operators ( ) ! && || ==. *)
let lex_expr s =
  let n = String.length s in
  let tokens = ref [] in
  let i = ref 0 in
  let is_word c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = ':'
  in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if c = '(' || c = ')' || c = '!' then begin
      tokens := String.make 1 c :: !tokens;
      incr i
    end
    else if c = '&' || c = '|' || c = '=' then begin
      if !i + 1 < n && s.[!i + 1] = c then begin
        tokens := String.make 2 c :: !tokens;
        i := !i + 2
      end
      else fail "expected %c%c" c c
    end
    else if is_word c then begin
      let start = !i in
      while !i < n && is_word s.[!i] do
        incr i
      done;
      tokens := String.sub s start (!i - start) :: !tokens
    end
    else fail "unexpected character %c in condition" c
  done;
  List.rev !tokens

(* Recursive-descent parser: or <- and (|| and)*; and <- unary (&& unary)*;
   unary <- ! unary | ( or ) | atom == value | true | false. *)
let parse_expr tokens =
  let stream = ref tokens in
  let peek () = match !stream with [] -> None | t :: _ -> Some t in
  let advance () = match !stream with [] -> fail "unexpected end of condition" | _ :: r -> stream := r in
  let expect t =
    match peek () with
    | Some got when got = t -> advance ()
    | Some got -> fail "expected %s, got %s" t got
    | None -> fail "expected %s at end of condition" t
  in
  let atom_of word value =
    match String.index_opt word ':' with
    | Some colon ->
        let thread = String.sub word 0 colon in
        let reg_part = String.sub word (colon + 1) (String.length word - colon - 1) in
        if String.length reg_part < 2 || reg_part.[0] <> 'r' then
          fail "bad register %s (expected rN)" reg_part;
        let reg =
          match int_of_string_opt (String.sub reg_part 1 (String.length reg_part - 1)) with
          | Some r when r >= 0 -> r
          | _ -> fail "bad register %s" reg_part
        in
        Atom_reg (thread, reg, value)
    | None -> Atom_final (word, value)
  in
  let rec parse_or () =
    let left = parse_and () in
    if peek () = Some "||" then begin
      advance ();
      Or (left, parse_or ())
    end
    else left
  and parse_and () =
    let left = parse_unary () in
    if peek () = Some "&&" then begin
      advance ();
      And (left, parse_and ())
    end
    else left
  and parse_unary () =
    match peek () with
    | Some "!" ->
        advance ();
        Not (parse_unary ())
    | Some "(" ->
        advance ();
        let e = parse_or () in
        expect ")";
        e
    | Some "true" ->
        advance ();
        Const true
    | Some "false" ->
        advance ();
        Const false
    | Some word ->
        advance ();
        expect "==";
        let value =
          match peek () with
          | Some v -> (
              advance ();
              match int_of_string_opt v with Some i -> i | None -> fail "bad value %s" v)
          | None -> fail "missing value after =="
        in
        atom_of word value
    | None -> fail "empty condition"
  in
  let e = parse_or () in
  (match !stream with [] -> () | t :: _ -> fail "trailing %s in condition" t);
  e

(* An atom whose register or location is out of the outcome's range is
   false. *)
let rec eval_expr (o : Litmus.outcome) = function
  | Const b -> b
  | Not e -> not (eval_expr o e)
  | And (a, b) -> eval_expr o a && eval_expr o b
  | Or (a, b) -> eval_expr o a || eval_expr o b
  | Atom_reg (tid, reg, value) ->
      tid < Array.length o.Litmus.regs
      && reg < Array.length o.Litmus.regs.(tid)
      && o.Litmus.regs.(tid).(reg) = value
  | Atom_final (l, value) -> l < Array.length o.Litmus.final && o.Litmus.final.(l) = value

(* ------------------------------------------------------------------ *)
(* Test parsing                                                         *)

type builder = {
  mutable name : string option;
  mutable model : Model.t;
  mutable locations : string list;  (* reversed *)
  mutable threads : (string * Instr.t list) list;  (* reversed; instrs reversed *)
  mutable target : string option;
}

let strip_comment line =
  match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line

let words line =
  String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line)
  |> List.filter (fun w -> w <> "")

let loc_id b name =
  let rec find i = function
    | [] -> None
    | l :: rest -> if l = name then Some i else find (i + 1) rest
  in
  let ordered = List.rev b.locations in
  match find 0 ordered with
  | Some i -> i
  | None ->
      b.locations <- name :: b.locations;
      List.length ordered

let parse_reg word =
  if String.length word >= 2 && word.[0] = 'r' then
    match int_of_string_opt (String.sub word 1 (String.length word - 1)) with
    | Some r when r >= 0 -> r
    | _ -> fail "bad register %s" word
  else fail "bad register %s (expected rN)" word

let parse_value word =
  match int_of_string_opt word with Some v -> v | None -> fail "bad value %s" word

(* A trailing [wg]/[dev] token scopes the instruction; absent means
   device scope, and the printer below emits the marker only for
   workgroup scope, so pre-scope sources round-trip byte-identically. *)
let split_scope tokens =
  match List.rev tokens with
  | last :: rest_rev when Scope.of_string last <> None ->
      (List.rev rest_rev, Option.get (Scope.of_string last))
  | _ -> (tokens, Scope.Device)

let parse_instruction b tokens =
  let tokens, scope = split_scope tokens in
  match tokens with
  | [ "store"; loc; value ] -> Instr.Store { loc = loc_id b loc; value = parse_value value; scope }
  | [ "fence" ] -> Instr.Fence { scope }
  | [ reg; "="; "load"; loc ] -> Instr.Load { reg = parse_reg reg; loc = loc_id b loc; scope }
  | [ reg; "="; "exchange"; loc; value ] ->
      Instr.Rmw { reg = parse_reg reg; loc = loc_id b loc; value = parse_value value; scope }
  | _ -> fail "unrecognised instruction: %s" (String.concat " " tokens)

let parse source =
  let b = { name = None; model = Model.Sc_per_location; locations = []; threads = []; target = None } in
  let lines = String.split_on_char '\n' source in
  try
    List.iteri
      (fun lineno line ->
        try
          let line = strip_comment line in
          match words line with
          | [] -> ()
          | "test" :: rest ->
              if b.name <> None then fail "duplicate test line";
              if rest = [] then fail "test needs a name";
              b.name <- Some (String.concat " " rest)
          | [ "model"; m ] -> (
              match Model.of_string m with
              | Some model -> b.model <- model
              | None -> fail "unknown model %s" m)
          | "locations" :: locs -> List.iter (fun l -> ignore (loc_id b l)) locs
          | "thread" :: rest ->
              let name =
                match rest with
                | [] -> Printf.sprintf "P%d" (List.length b.threads)
                | [ n ] -> n
                | _ -> fail "thread takes at most one name"
              in
              if List.mem_assoc name b.threads then fail "duplicate thread %s" name;
              b.threads <- (name, []) :: b.threads
          | "target" :: rest | "exists" :: rest ->
              if b.target <> None then fail "duplicate target line";
              b.target <- Some (String.concat " " rest)
          | tokens -> (
              match b.threads with
              | [] -> fail "instruction before any thread"
              | (name, instrs) :: older ->
                  b.threads <- (name, parse_instruction b tokens :: instrs) :: older)
        with Syntax msg -> fail "line %d: %s" (lineno + 1) msg)
      lines;
    let name = match b.name with Some n -> n | None -> fail "missing test line" in
    let target_src = match b.target with Some t -> t | None -> fail "missing target line" in
    let threads = List.rev_map (fun (n, instrs) -> (n, List.rev instrs)) b.threads in
    if threads = [] then fail "no threads";
    let thread_names = List.map fst threads in
    let expr = parse_expr (lex_expr target_src) in
    let locations = List.rev b.locations in
    let thread_index t =
      let rec find i = function
        | [] -> fail "unknown thread %s in condition" t
        | n :: rest -> if n = t then i else find (i + 1) rest
      in
      find 0 thread_names
    in
    let loc_index l =
      let rec find i = function
        | [] -> fail "unknown location %s in condition" l
        | n :: rest -> if n = l then i else find (i + 1) rest
      in
      find 0 locations
    in
    (* Resolve names once, here: unknown ones are parse errors, and the
       target indexes the outcome directly. *)
    let cond = map_atoms ~thread:thread_index ~loc:loc_index expr in
    let test =
      {
        Litmus.name;
        family = "parsed";
        model = b.model;
        threads = Array.of_list (List.map snd threads);
        nlocs = List.length locations;
        target = (fun _ -> false);
        target_desc = target_src;
      }
    in
    (* The condition speaks of this test's outcomes; one of another
       shape satisfies no target, as with [Litmus.outcome_mem]. *)
    let shape = Litmus.empty_outcome test in
    let target o = Litmus.same_shape o shape && eval_expr o cond in
    match Litmus.well_formed test with Ok () -> Ok { test with target } | Error e -> Error e
  with Syntax msg -> Error msg

let parse_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    parse s
  with Sys_error e -> Error e

(* ------------------------------------------------------------------ *)
(* Printing                                                             *)

let model_keyword = function
  | Model.Sc -> "sc"
  | Model.Sc_per_location -> "sc-per-loc"
  | Model.Relacq_sc_per_location -> "relacq"

let instruction_source ~loc_names i =
  let body =
    match i with
    | Instr.Store { loc; value; _ } -> Printf.sprintf "store %s %d" (loc_names loc) value
    | Instr.Load { reg; loc; _ } -> Printf.sprintf "r%d = load %s" reg (loc_names loc)
    | Instr.Rmw { reg; loc; value; _ } ->
        Printf.sprintf "r%d = exchange %s %d" reg (loc_names loc) value
    | Instr.Fence _ -> "fence"
  in
  match Instr.scope i with
  | Scope.Device -> body
  | Scope.Workgroup -> body ^ " " ^ Scope.name Scope.Workgroup

let to_source test =
  (match Litmus.well_formed test with
  | Ok () -> ()
  | Error e -> invalid_arg ("Parse.to_source: " ^ e));
  let buf = Buffer.create 512 in
  let loc_names = Litmus.loc_name in
  Buffer.add_string buf (Printf.sprintf "test %s\n" test.Litmus.name);
  Buffer.add_string buf (Printf.sprintf "model %s\n" (model_keyword test.Litmus.model));
  Buffer.add_string buf
    (Printf.sprintf "locations %s\n"
       (String.concat " " (List.init test.Litmus.nlocs loc_names)));
  Array.iteri
    (fun tid instrs ->
      Buffer.add_string buf (Printf.sprintf "thread P%d\n" tid);
      List.iter
        (fun i -> Buffer.add_string buf ("  " ^ instruction_source ~loc_names i ^ "\n"))
        instrs)
    test.Litmus.threads;
  (* Reconstruct the target as the disjunction of satisfying outcomes. *)
  let satisfying = List.filter test.Litmus.target (Enumerate.outcomes test) in
  let conjunction (o : Litmus.outcome) =
    let parts = ref [] in
    Array.iteri
      (fun l v -> parts := Printf.sprintf "%s == %d" (loc_names l) v :: !parts)
      o.Litmus.final;
    Array.iteri
      (fun tid regs ->
        Array.iteri (fun r v -> parts := Printf.sprintf "P%d:r%d == %d" tid r v :: !parts) regs)
      o.Litmus.regs;
    "(" ^ String.concat " && " (List.rev !parts) ^ ")"
  in
  let target =
    match satisfying with
    | [] -> "false"
    | outcomes -> String.concat " || " (List.map conjunction outcomes)
  in
  Buffer.add_string buf (Printf.sprintf "target %s\n" target);
  Buffer.contents buf

module Event = Mcm_memmodel.Event
module Execution = Mcm_memmodel.Execution
module Scope = Mcm_memmodel.Scope

type outcome = { regs : int array array; final : int array }

type t = {
  name : string;
  family : string;
  model : Mcm_memmodel.Model.t;
  threads : Instr.t list array;
  nlocs : int;
  target : outcome -> bool;
  target_desc : string;
}

let nthreads t = Array.length t.threads

let nregs t =
  let per_thread instrs =
    List.fold_left
      (fun acc i -> match Instr.defines_reg i with Some r -> max acc (r + 1) | None -> acc)
      0 instrs
  in
  Array.map per_thread t.threads

let well_formed t =
  if Array.length t.threads = 0 then Error (Printf.sprintf "test %s has no threads" t.name)
  else begin
    let problem = ref None in
    let note fmt = Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt in
    let values = Hashtbl.create 8 in
    Array.iteri
      (fun tid instrs ->
        let written = Hashtbl.create 4 in
        let check i =
          (match Instr.uses_loc i with
          | Some l when l < 0 || l >= t.nlocs ->
              note "thread %d uses location %d >= nlocs %d" tid l t.nlocs
          | _ -> ());
          (match Instr.defines_reg i with
          | Some r ->
              if Hashtbl.mem written r then note "thread %d writes register r%d twice" tid r;
              Hashtbl.replace written r ()
          | None -> ());
          match i with
          | Instr.Store { loc; value; _ } | Instr.Rmw { loc; value; _ } ->
              if value = 0 then note "thread %d stores value 0 (reserved for the initial state)" tid;
              if Hashtbl.mem values (loc, value) then
                note "value %d stored twice to location %d" value loc;
              Hashtbl.replace values (loc, value) ()
          | Instr.Load _ | Instr.Fence _ -> ()
        in
        List.iter check instrs)
      t.threads;
    match !problem with None -> Ok () | Some s -> Error s
  end

type compiled = {
  events : Event.t array;
  reg_of_event : (int * int) option array;
}

let compile ?(layout = Scope.default_layout) t =
  let events = ref [] in
  let regs = ref [] in
  let id = ref 0 in
  Array.iteri
    (fun tid instrs ->
      let wg = Scope.workgroup layout ~tid in
      List.iteri
        (fun idx i ->
          let kind, reg =
            match i with
            | Instr.Load { reg; loc; _ } -> (Event.Read { loc }, Some (tid, reg))
            | Instr.Store { loc; value; _ } -> (Event.Write { loc; value }, None)
            | Instr.Rmw { reg; loc; value; _ } -> (Event.Rmw { loc; value }, Some (tid, reg))
            | Instr.Fence _ -> (Event.Fence, None)
          in
          events := { Event.id = !id; tid; idx; wg; scope = Instr.scope i; kind } :: !events;
          regs := reg :: !regs;
          incr id)
        instrs)
    t.threads;
  { events = Array.of_list (List.rev !events); reg_of_event = Array.of_list (List.rev !regs) }

(* Monomorphic structural equality: the same answer as [=] on outcomes
   without the polymorphic compare's tag dispatch, and no allocation. *)
let rec ints_equal_from (a : int array) (b : int array) i =
  i >= Array.length a || (a.(i) = b.(i) && ints_equal_from a b (i + 1))

let ints_equal (a : int array) b = Array.length a = Array.length b && ints_equal_from a b 0

let rec rows_equal_from (a : int array array) (b : int array array) i =
  i >= Array.length a || (ints_equal a.(i) b.(i) && rows_equal_from a b (i + 1))

let outcome_equal o p =
  ints_equal o.final p.final
  && Array.length o.regs = Array.length p.regs
  && rows_equal_from o.regs p.regs 0

let rec rows_fit_from (a : int array array) (b : int array array) i =
  i >= Array.length a || (Array.length a.(i) = Array.length b.(i) && rows_fit_from a b (i + 1))

let same_shape o p =
  Array.length o.final = Array.length p.final
  && Array.length o.regs = Array.length p.regs
  && rows_fit_from o.regs p.regs 0

let rec outcome_mem o = function [] -> false | p :: rest -> outcome_equal o p || outcome_mem o rest

let empty_outcome t = { regs = Array.map (fun n -> Array.make n 0) (nregs t); final = Array.make t.nlocs 0 }

let outcome_of_execution t (x : Execution.t) =
  let compiled = compile t in
  let out = empty_outcome t in
  Array.iteri
    (fun id binding ->
      match binding with
      | Some (tid, reg) ->
          if Event.is_read compiled.events.(id) then out.regs.(tid).(reg) <- Execution.value_read x id
      | None -> ())
    compiled.reg_of_event;
  List.iter
    (fun (l, order) ->
      match List.rev order with
      | [] -> ()
      | last :: _ -> (
          match Event.written_value x.Execution.events.(last) with
          | Some v -> out.final.(l) <- v
          | None -> ()))
    x.Execution.co;
  out

let loc_name l = match l with 0 -> "x" | 1 -> "y" | 2 -> "z" | n -> "l" ^ string_of_int n

let outcome_to_string o =
  let buf = Buffer.create 32 in
  Array.iteri
    (fun tid rs ->
      Array.iteri (fun r v -> Buffer.add_string buf (Printf.sprintf "t%d.r%d:%d " tid r v)) rs)
    o.regs;
  Buffer.add_string buf "|";
  Array.iteri (fun l v -> Buffer.add_string buf (Printf.sprintf " %s=%d" (loc_name l) v)) o.final;
  Buffer.contents buf

let pp fmt t =
  Format.fprintf fmt "@[<v>%s (family %s, model %s)@," t.name t.family
    (Mcm_memmodel.Model.name t.model);
  Array.iteri
    (fun tid instrs ->
      Format.fprintf fmt "thread %d:@," tid;
      List.iter (fun i -> Format.fprintf fmt "  %a@," (Instr.pp ~loc_names:loc_name) i) instrs)
    t.threads;
  Format.fprintf fmt "target: %s@]" t.target_desc

let to_string t = Format.asprintf "%a" pp t

type t = {
  events : Event.t array;
  rf : int option array;
  co : (int * int list) list;
}

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let well_formed x =
  let n = Array.length x.events in
  let ok = ref (Ok ()) in
  let fail fmt = Printf.ksprintf (fun s -> if !ok = Ok () then ok := Error s) fmt in
  if Array.length x.rf <> n then fail "rf array length %d <> %d events" (Array.length x.rf) n;
  Array.iteri (fun i e -> if e.Event.id <> i then fail "event at %d has id %d" i e.Event.id) x.events;
  if !ok = Ok () then begin
    Array.iteri
      (fun i e ->
        if Event.is_read e then
          match x.rf.(i) with
          | None -> ()
          | Some w ->
              if w < 0 || w >= n then fail "rf source %d out of range" w
              else
                let we = x.events.(w) in
                if not (Event.is_write we) then fail "rf source %d is not a write" w
                else if not (Event.same_loc e we) then fail "rf source %d targets another location" w)
      x.events;
    (* co must cover exactly the writes per location. *)
    let locs = Hashtbl.create 8 in
    Array.iter
      (fun e ->
        if Event.is_write e then
          match Event.loc e with
          | Some l ->
              let cur = try Hashtbl.find locs l with Not_found -> [] in
              Hashtbl.replace locs l (e.Event.id :: cur)
          | None -> ())
      x.events;
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (l, order) ->
        if Hashtbl.mem seen l then fail "location %d listed twice in co" l;
        Hashtbl.replace seen l ();
        let expected = try List.sort compare (Hashtbl.find locs l) with Not_found -> [] in
        let got = List.sort compare order in
        if expected <> got then fail "co for location %d does not list exactly its writes" l)
      x.co;
    Hashtbl.iter
      (fun l ids -> if ids <> [] && not (Hashtbl.mem seen l) then fail "location %d missing from co" l)
      locs
  end;
  match !ok with Ok () -> Ok () | Error e -> err "%s" e

let value_read x r =
  let e = x.events.(r) in
  if not (Event.is_read e) then invalid_arg "Execution.value_read: not a read";
  match x.rf.(r) with
  | None -> 0
  | Some w -> (
      match Event.written_value x.events.(w) with
      | Some v -> v
      | None -> invalid_arg "Execution.value_read: rf source writes nothing")

type relations = {
  po : Relation.t;
  po_loc : Relation.t;
  rf : Relation.t;
  co : Relation.t;
  fr : Relation.t;
  com : Relation.t;
  sw : Relation.t;
  po_sw_po : Relation.t;
}

(* po and po_loc depend only on the event array, not on the rf/co
   choices — they are the fixed skeleton every candidate execution of a
   test shares, which is why the propagation engine can seed its
   incremental closure with them before making any choice. Each relation
   here and in [relations] is built in one fresh matrix. *)
let static_po events =
  let n = Array.length events in
  let po =
    Relation.build n (fun add ->
        for a = 0 to n - 1 do
          for b = 0 to n - 1 do
            let ea = events.(a) and eb = events.(b) in
            if ea.Event.tid = eb.Event.tid && ea.Event.idx < eb.Event.idx then add a b
          done
        done)
  in
  let po_loc = Relation.restrict po (fun a b -> Event.same_loc events.(a) events.(b)) in
  (po, po_loc)

let relations x =
  let n = Array.length x.events in
  let po, po_loc = static_po x.events in
  let rf_edges add =
    Array.iteri
      (fun r src -> match src with Some w when Event.is_read x.events.(r) -> add w r | _ -> ())
      x.rf
  in
  let co_edges add =
    let rec pairs = function
      | [] -> ()
      | w :: rest ->
          List.iter (fun w' -> add w w') rest;
          pairs rest
    in
    List.iter (fun (_, order) -> pairs order) x.co
  in
  (* fr: read r (rf source s, possibly initial) -> any write w' to the same
     location with s co-before w'. Initial-state reads are fr-before every
     write to the location. An RMW is never fr-related to its own write. *)
  let fr_edges add =
    Array.iteri
      (fun r e ->
        if Event.is_read e then
          match Event.loc e with
          | None -> ()
          | Some l ->
              let order = try List.assoc l x.co with Not_found -> [] in
              let later =
                match x.rf.(r) with
                | None -> order
                | Some s ->
                    let rec after = function
                      | [] -> []
                      | w :: rest -> if w = s then rest else after rest
                    in
                    after order
              in
              List.iter (fun w' -> if w' <> r then add r w') later)
      x.events
  in
  (* sw: release fence f_r -> acquire fence f_a, different threads, with a
     write w po-after f_r read by a read r po-before f_a. Scoped: the
     edge only forms when each fence's scope covers the partner's
     workgroup (all-Device reduces to the unscoped definition). *)
  let sw_edges add =
    for f_r = 0 to n - 1 do
      if Event.is_fence x.events.(f_r) then
        for f_a = 0 to n - 1 do
          let er = x.events.(f_r) and ea = x.events.(f_a) in
          if
            Event.is_fence ea
            && er.Event.tid <> ea.Event.tid
            && Scope.covers er.Event.scope ~own:er.Event.wg ~other:ea.Event.wg
            && Scope.covers ea.Event.scope ~own:ea.Event.wg ~other:er.Event.wg
          then begin
            let linked = ref false in
            for w = 0 to n - 1 do
              if Relation.mem po f_r w && Event.is_write x.events.(w) then
                for r = 0 to n - 1 do
                  if
                    Relation.mem po r f_a
                    && Event.is_read x.events.(r)
                    && x.rf.(r) = Some w
                  then linked := true
                done
            done;
            if !linked then add f_r f_a
          end
        done
    done
  in
  (* po;sw;po, straight from the sw edges: a -> c when a is po-before a
     release fence and c po-after the acquire fence it synchronises with. *)
  let po_sw_po_edges add =
    sw_edges (fun f_r f_a ->
        for a = 0 to n - 1 do
          if Relation.mem po a f_r then
            for c = 0 to n - 1 do
              if Relation.mem po f_a c then add a c
            done
        done)
  in
  {
    po;
    po_loc;
    rf = Relation.build n rf_edges;
    co = Relation.build n co_edges;
    fr = Relation.build n fr_edges;
    com =
      Relation.build n (fun add ->
          rf_edges add;
          co_edges add;
          fr_edges add);
    sw = Relation.build n sw_edges;
    po_sw_po = Relation.build n po_sw_po_edges;
  }

let event_name x i =
  let _ = x in
  if i < 26 then String.make 1 (Char.chr (Char.code 'a' + i)) else "e" ^ string_of_int i

let pp fmt (x : t) =
  Format.fprintf fmt "@[<v>";
  Array.iteri
    (fun i e ->
      Format.fprintf fmt "%s: %a" (event_name x i) Event.pp e;
      (match x.rf.(i) with
      | Some w when Event.is_read e -> Format.fprintf fmt "  rf<- %s" (event_name x w)
      | None when Event.is_read e -> Format.fprintf fmt "  rf<- init"
      | _ -> ());
      Format.fprintf fmt "@,")
    x.events;
  List.iter
    (fun (l, order) ->
      Format.fprintf fmt "co(loc %d): init" l;
      List.iter (fun w -> Format.fprintf fmt " -> %s" (event_name x w)) order;
      Format.fprintf fmt "@,")
    x.co;
  Format.fprintf fmt "@]"

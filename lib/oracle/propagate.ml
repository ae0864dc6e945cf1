module Event = Mcm_memmodel.Event
module Execution = Mcm_memmodel.Execution
module Relation = Mcm_memmodel.Relation
module Model = Mcm_memmodel.Model
module Litmus = Mcm_litmus.Litmus
module Enumerate = Mcm_litmus.Enumerate
module Scope = Mcm_memmodel.Scope
module Closure = Relation.Closure

type stats = { explored : int; pruned : int; consistent : int }

(* The engine walks the same decision tree as Enumerate — rf choices for
   the reads in ascending id order, then per-location coherence
   permutations — but carries an incrementally closed happens-before
   relation and cuts a subtree the moment a definite edge closes a
   cycle or a coherence slot an RMW needs is taken.

   Soundness of every pruning step rests on one invariant: each edge
   added at a partial assignment is present in hb of EVERY completion of
   that assignment (po/po-loc are fixed; rf, co-chain, fr and po;sw;po
   edges only ever accumulate as choices are made). A cycle among
   definite edges is therefore a cycle in every completion, and the
   subtree contains no consistent execution.

   Completeness at the leaves: the accumulated edges span exactly the
   transitive closure of Model.hb (the co chain generates all co pairs;
   every fr pair is added when its target write is placed after the
   read's already-placed source, or up front for initial-state reads),
   and the placement checks enforce precisely Model.rmw_atomic. So a
   leaf is reached iff Model.consistent holds — no final check is
   needed, and the surviving leaves stream in exactly the order
   Enumerate.fold_consistent produces them. *)

let search ?layout m t ~on_leaf =
  let sp = Enumerate.space ?layout t in
  let events = sp.Enumerate.events in
  let n = Array.length events in
  let po, po_loc = Execution.static_po events in
  let base = match Model.hb_base m with `Po -> po | `Po_loc -> po_loc in
  let root =
    match Closure.of_relation base with
    | Some c -> c
    | None -> invalid_arg "Propagate: program order is cyclic"
  in
  let writes_of l = try List.assoc l sp.Enumerate.writes_by_loc with Not_found -> [] in
  let readers_of =
    let tbl = Hashtbl.create 4 in
    List.iter
      (fun r ->
        match Event.loc events.(r) with
        | Some l -> Hashtbl.replace tbl l (Hashtbl.find_opt tbl l |> Option.value ~default:[] |> fun rs -> rs @ [ r ])
        | None -> ())
      sp.Enumerate.reads;
    fun l -> Option.value ~default:[] (Hashtbl.find_opt tbl l)
  in
  let rmws_of l = List.filter (fun w -> Event.is_rmw events.(w)) (writes_of l) in
  (* Same-location RMWs assigned before [r] in the rf stage: two of them
     choosing the same source can never both sit immediately after it in
     co, so the conflict prunes at assignment time. *)
  let earlier_rmws r =
    match Event.loc events.(r) with
    | None -> []
    | Some l -> List.filter (fun r' -> r' < r) (rmws_of l)
  in
  (* Release/acquire synchronisation: assigning rf(r) = Some w activates
     sw(f_r, f_a) for every fence pair with po(f_r, w) and po(r, f_a) in
     distinct threads, contributing the po;sw;po edges precomputed
     here. Monotone in the rf choices, hence safe to add eagerly. *)
  let sw_triggers =
    if not (Model.hb_includes_sw m) then [||]
    else begin
      let triggers = Array.make (n * n) [] in
      for f_r = 0 to n - 1 do
        if Event.is_fence events.(f_r) then
          for f_a = 0 to n - 1 do
            let er = events.(f_r) and ea = events.(f_a) in
            if
              Event.is_fence ea
              && er.Event.tid <> ea.Event.tid
              && Scope.covers er.Event.scope ~own:er.Event.wg ~other:ea.Event.wg
              && Scope.covers ea.Event.scope ~own:ea.Event.wg ~other:er.Event.wg
            then begin
              let posw = ref [] in
              for a = 0 to n - 1 do
                if Relation.mem po a f_r then
                  for c = 0 to n - 1 do
                    if Relation.mem po f_a c then posw := (a, c) :: !posw
                  done
              done;
              if !posw <> [] then
                for w = 0 to n - 1 do
                  if Relation.mem po f_r w && Event.is_write events.(w) then
                    for r = 0 to n - 1 do
                      if Relation.mem po r f_a && Event.is_read events.(r) then
                        triggers.((w * n) + r) <- !posw @ triggers.((w * n) + r)
                    done
                done
            end
          done
      done;
      Array.map (List.sort_uniq compare) triggers
    end
  in
  let rf = Array.make n None in
  let explored = ref 0 and pruned = ref 0 and consistent = ref 0 in
  let apply_rf cl r choice =
    (not (Event.is_rmw events.(r) && List.exists (fun r' -> rf.(r') = choice) (earlier_rmws r)))
    &&
    match choice with
    | Some w ->
        Closure.add cl w r
        && (Array.length sw_triggers = 0
           || List.for_all (fun (a, c) -> Closure.add cl a c) sw_triggers.((w * n) + r))
    | None -> (
        (* An initial-state read is fr-before every write to its
           location, whatever co turns out to be. *)
        match Event.loc events.(r) with
        | None -> true
        | Some l -> List.for_all (fun w' -> w' = r || Closure.add cl r w') (writes_of l))
  in
  (* Placing write [w] next in location [l]'s coherence order, after the
     (reversed) prefix [chosen]. Fails when the slot belongs to an RMW
     reading from the current tail, when [w] is an RMW that must sit
     elsewhere, or when a co/fr edge closes a cycle. *)
  let place cl l chosen w =
    let expected_src = match chosen with [] -> None | last :: _ -> Some last in
    (not (List.exists (fun m' -> m' <> w && rf.(m') = expected_src) (rmws_of l)))
    && (not (Event.is_rmw events.(w)) || rf.(w) = expected_src)
    && (match chosen with [] -> true | last :: _ -> Closure.add cl last w)
    && List.for_all
         (fun r ->
           r = w
           ||
           match rf.(r) with
           | Some s when List.mem s chosen -> Closure.add cl r w
           | _ -> true)
         (readers_of l)
  in
  let emit co_acc =
    incr consistent;
    on_leaf { Execution.events; rf = Array.copy rf; co = List.rev co_acc }
  in
  let rec over_co locs co_acc cl =
    match locs with
    | [] -> emit co_acc
    | (l, ws) :: rest ->
        let rec perms chosen remaining cl =
          if remaining = [] then over_co rest ((l, List.rev chosen) :: co_acc) cl
          else
            List.iter
              (fun w ->
                incr explored;
                let cl' = Closure.copy cl in
                if place cl' l chosen w then
                  perms (w :: chosen) (List.filter (fun w' -> w' <> w) remaining) cl'
                else incr pruned)
              remaining
        in
        perms [] ws cl
  and over_rf reads cl =
    match reads with
    | [] -> over_co sp.Enumerate.writes_by_loc [] cl
    | r :: rest ->
        List.iter
          (fun choice ->
            incr explored;
            rf.(r) <- choice;
            let cl' = Closure.copy cl in
            if apply_rf cl' r choice then over_rf rest cl' else incr pruned)
          (Enumerate.rf_choices sp r)
  in
  over_rf sp.Enumerate.reads root;
  { explored = !explored; pruned = !pruned; consistent = !consistent }

let fold_consistent ?layout m t ~init ~f =
  let acc = ref init in
  let (_ : stats) = search ?layout m t ~on_leaf:(fun x -> acc := f !acc x) in
  !acc

let iter_consistent ?layout m t ~f =
  let (_ : stats) = search ?layout m t ~on_leaf:f in
  ()

let count_consistent ?layout m t =
  (* The walk itself counts leaves; no execution needs retaining. *)
  (search ?layout m t ~on_leaf:ignore).consistent

let stats ?layout m t = search ?layout m t ~on_leaf:ignore

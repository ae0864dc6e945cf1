type t = { n : int; m : bool array array }

let empty n =
  if n < 0 then invalid_arg "Relation.empty: negative size";
  { n; m = Array.make_matrix n n false }

let size r = r.n

let check_index r i =
  if i < 0 || i >= r.n then invalid_arg "Relation: index out of bounds"

let copy r = { n = r.n; m = Array.map Array.copy r.m }

let of_list n pairs =
  let r = empty n in
  let set (a, b) =
    check_index r a;
    check_index r b;
    r.m.(a).(b) <- true
  in
  List.iter set pairs;
  r

let build n f =
  let r = empty n in
  f (fun a b ->
      check_index r a;
      check_index r b;
      r.m.(a).(b) <- true);
  r

let to_list r =
  let acc = ref [] in
  for a = r.n - 1 downto 0 do
    for b = r.n - 1 downto 0 do
      if r.m.(a).(b) then acc := (a, b) :: !acc
    done
  done;
  !acc

let mem r a b =
  check_index r a;
  check_index r b;
  r.m.(a).(b)

let add r a b =
  check_index r a;
  check_index r b;
  let r' = copy r in
  r'.m.(a).(b) <- true;
  r'

let cardinal r =
  let c = ref 0 in
  Array.iter (fun row -> Array.iter (fun b -> if b then incr c) row) r.m;
  !c

let check_same_size r s =
  if r.n <> s.n then invalid_arg "Relation: carrier size mismatch"

let union r s =
  check_same_size r s;
  let out = empty r.n in
  for a = 0 to r.n - 1 do
    for b = 0 to r.n - 1 do
      out.m.(a).(b) <- r.m.(a).(b) || s.m.(a).(b)
    done
  done;
  out

let inter r s =
  check_same_size r s;
  let out = empty r.n in
  for a = 0 to r.n - 1 do
    for b = 0 to r.n - 1 do
      out.m.(a).(b) <- r.m.(a).(b) && s.m.(a).(b)
    done
  done;
  out

let compose r s =
  check_same_size r s;
  let out = empty r.n in
  for a = 0 to r.n - 1 do
    for b = 0 to r.n - 1 do
      if r.m.(a).(b) then
        for c = 0 to r.n - 1 do
          if s.m.(b).(c) then out.m.(a).(c) <- true
        done
    done
  done;
  out

let inverse r =
  let out = empty r.n in
  for a = 0 to r.n - 1 do
    for b = 0 to r.n - 1 do
      out.m.(b).(a) <- r.m.(a).(b)
    done
  done;
  out

let restrict r keep =
  let out = empty r.n in
  for a = 0 to r.n - 1 do
    for b = 0 to r.n - 1 do
      out.m.(a).(b) <- r.m.(a).(b) && keep a b
    done
  done;
  out

let transitive_closure r =
  let out = copy r in
  for k = 0 to r.n - 1 do
    for a = 0 to r.n - 1 do
      if out.m.(a).(k) then
        for b = 0 to r.n - 1 do
          if out.m.(k).(b) then out.m.(a).(b) <- true
        done
    done
  done;
  out

let is_acyclic r =
  (* Depth-first search: an edge to a vertex still on the current path
     closes a cycle. 0 = unvisited, 1 = on the path, 2 = done. *)
  let n = r.n in
  let color = Array.make n 0 in
  let rec visit a =
    color.(a) <- 1;
    let row = r.m.(a) and ok = ref true and b = ref 0 in
    while !ok && !b < n do
      if row.(!b) then begin
        match color.(!b) with 0 -> ok := visit !b | 1 -> ok := false | _ -> ()
      end;
      incr b
    done;
    color.(a) <- 2;
    !ok
  in
  let ok = ref true and a = ref 0 in
  while !ok && !a < n do
    if color.(!a) = 0 then ok := visit !a;
    incr a
  done;
  !ok

let is_total_order_on r elems =
  let closed = transitive_closure r in
  let irreflexive = List.for_all (fun a -> not closed.m.(a).(a)) elems in
  let comparable =
    List.for_all
      (fun a ->
        List.for_all (fun b -> a = b || closed.m.(a).(b) || closed.m.(b).(a)) elems)
      elems
  in
  (* Transitivity on the restriction: pairs of the original relation among
     [elems] must already be transitively consistent, which the closure
     check captures together with irreflexivity. *)
  irreflexive && comparable

let find_cycle r =
  (* DFS with colors; on finding a back edge, extract the stack segment. *)
  let color = Array.make r.n 0 in
  (* 0 = white, 1 = on stack, 2 = done *)
  let result = ref None in
  let stack = ref [] in
  let rec visit a =
    if !result = None then begin
      color.(a) <- 1;
      stack := a :: !stack;
      for b = 0 to r.n - 1 do
        if !result = None && r.m.(a).(b) then
          if color.(b) = 1 then begin
            (* Back edge a -> b: the cycle is b ... a on the stack. *)
            let rec take acc = function
              | [] -> acc
              | x :: rest -> if x = b then x :: acc else take (x :: acc) rest
            in
            result := Some (take [] !stack)
          end
          else if color.(b) = 0 then visit b
      done;
      if !result = None then begin
        color.(a) <- 2;
        stack := List.tl !stack
      end
    end
  in
  let a = ref 0 in
  while !result = None && !a < r.n do
    if color.(!a) = 0 then visit !a;
    incr a
  done;
  !result

module Closure = struct
  (* One byte per pair: reach.[a*n+b] <> '\000' iff b is reachable from a
     through one or more edges. Kept transitively closed by [add], so a
     cycle is detected the instant its last edge arrives. *)
  type c = { n : int; reach : Bytes.t }

  let create n =
    if n < 0 then invalid_arg "Relation.Closure.create: negative size";
    { n; reach = Bytes.make (n * n) '\000' }

  let size c = c.n
  let copy c = { c with reach = Bytes.copy c.reach }

  let reaches c a b =
    if a < 0 || a >= c.n || b < 0 || b >= c.n then
      invalid_arg "Relation.Closure: index out of bounds";
    Bytes.unsafe_get c.reach ((a * c.n) + b) <> '\000'

  let add c a b =
    if a < 0 || a >= c.n || b < 0 || b >= c.n then
      invalid_arg "Relation.Closure: index out of bounds";
    if a = b || Bytes.unsafe_get c.reach ((b * c.n) + a) <> '\000' then false
    else begin
      (* Everything that reaches a (plus a itself) now reaches everything
         reached from b (plus b itself). The state is untouched when the
         edge would close a cycle, so the caller can keep using [c]. *)
      for x = 0 to c.n - 1 do
        if x = a || Bytes.unsafe_get c.reach ((x * c.n) + a) <> '\000' then begin
          let row = x * c.n in
          Bytes.unsafe_set c.reach (row + b) '\001';
          for y = 0 to c.n - 1 do
            if Bytes.unsafe_get c.reach ((b * c.n) + y) <> '\000' then
              Bytes.unsafe_set c.reach (row + y) '\001'
          done
        end
      done;
      true
    end

  let of_relation (r : t) =
    let c = create r.n in
    let ok = ref true in
    for a = 0 to r.n - 1 do
      for b = 0 to r.n - 1 do
        if r.m.(a).(b) then if not (add c a b) then ok := false
      done
    done;
    if !ok then Some c else None

  let to_relation c =
    let r = empty c.n in
    for a = 0 to c.n - 1 do
      for b = 0 to c.n - 1 do
        if Bytes.unsafe_get c.reach ((a * c.n) + b) <> '\000' then r.m.(a).(b) <- true
      done
    done;
    r
end

let equal r s = r.n = s.n && r.m = s.m

let subset r s =
  check_same_size r s;
  let ok = ref true in
  for a = 0 to r.n - 1 do
    for b = 0 to r.n - 1 do
      if r.m.(a).(b) && not s.m.(a).(b) then ok := false
    done
  done;
  !ok

let pp ~names fmt r =
  let pairs = to_list r in
  Format.fprintf fmt "{";
  List.iteri
    (fun i (a, b) ->
      if i > 0 then Format.fprintf fmt ", ";
      Format.fprintf fmt "%s->%s" (names a) (names b))
    pairs;
  Format.fprintf fmt "}"

module Instr = Mcm_litmus.Instr
module Litmus = Mcm_litmus.Litmus
module Prng = Mcm_util.Prng
module Scope = Mcm_memmodel.Scope

type sym = Ld of int | St of int | Um of int | Fn | Fw
type skeleton = sym list array

let sym_string = function
  | Ld l -> "L" ^ Litmus.loc_name l
  | St l -> "S" ^ Litmus.loc_name l
  | Um l -> "U" ^ Litmus.loc_name l
  | Fn -> "F"
  | Fw -> "Fw"

let to_string sk =
  String.concat " | "
    (Array.to_list (Array.map (fun t -> String.concat " " (List.map sym_string t)) sk))

let nlocs sk =
  Array.fold_left
    (fun acc t ->
      List.fold_left
        (fun acc s -> match s with Ld l | St l | Um l -> max acc (l + 1) | Fn | Fw -> acc)
        acc t)
    0 sk

(* ------------------------------------------------------------------ *)
(* Symbol codes                                                         *)

(* Over [d] locations, a symbol's code is its rank in [compare]'s order
   on [sym], counting from 1: the constant constructors [Fn] and [Fw]
   first, then [Ld], [St] and [Um], each by location. Code 0 is left free
   to end a thread. A program's code string is each thread's codes
   followed by a 0; two programs with as many threads compare under
   [compare] as their code strings compare lexicographically, because a
   thread that is a proper prefix of another meets a 0 where the other
   has a code (and [[] < _ :: _] under [compare]). *)
let code ~d = function
  | Fn -> 1
  | Fw -> 2
  | Ld l -> 3 + l
  | St l -> 3 + d + l
  | Um l -> 3 + (2 * d) + l

let sym_of_code ~d c =
  if c = 1 then Fn
  else if c = 2 then Fw
  else
    let l = (c - 3) mod d in
    match (c - 3) / d with 0 -> Ld l | 1 -> St l | _ -> Um l

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                     *)

(* Every permutation of [0 .. k-1]. *)
let permutations k =
  let rec perms = function
    | [] -> [ [] ]
    | xs ->
        List.concat_map (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) xs))) xs
  in
  Array.of_list (List.map Array.of_list (perms (List.init k Fun.id)))

(* Reused buffers for finding a program's least code string: [best] and
   [cur] hold code strings, [map] renumbers locations by first use, and
   [loc] and [kind] split a location-carrying code into its location and
   the code of the same symbol at location 0. *)
type canon = {
  d : int;
  map : int array;
  loc : int array;
  kind : int array;
  mutable best : int array;
  mutable cur : int array;
}

let canon ~d ~len =
  let codes = 3 + (3 * d) in
  {
    d;
    map = Array.make d (-1);
    loc = Array.init codes (fun s -> if s < 3 then 0 else (s - 3) mod d);
    kind = Array.init codes (fun s -> if s < 3 then s else s - ((s - 3) mod d));
    best = Array.make len 0;
    cur = Array.make len 0;
  }

(* Write into [c.cur] the code string of [threads] (arrays of codes over
   [c.d] locations) taken in [perm]'s order, locations renumbered by
   first use, and keep it as [c.best] when it is less. Writing stops at
   the first code that exceeds [c.best]'s. [first] takes it
   unconditionally. *)
let try_perm c threads perm ~first =
  let map = c.map and cur = c.cur and best = c.best in
  Array.fill map 0 c.d (-1);
  let next = ref 0 and pos = ref 0 in
  (* -1: less than [best] so far; 0: equal; 1: greater, stop. *)
  let order = ref (if first then -1 else 0) in
  let i = ref 0 in
  while !order <= 0 && !i < Array.length perm do
    let t = threads.(perm.(!i)) in
    let j = ref 0 in
    while !order <= 0 && !j <= Array.length t do
      let v =
        if !j = Array.length t then 0
        else
          let s = t.(!j) in
          if s < 3 then s
          else
            let l = c.loc.(s) in
            let m = map.(l) in
            let m =
              if m >= 0 then m
              else begin
                map.(l) <- !next;
                incr next;
                !next - 1
              end
            in
            c.kind.(s) + m
      in
      cur.(!pos) <- v;
      (if !order = 0 then
         let b = best.(!pos) in
         if v < b then order := -1 else if v > b then order := 1);
      incr pos;
      incr j
    done;
    incr i
  done;
  if !order < 0 then begin
    c.best <- cur;
    c.cur <- best
  end

let least c threads perms =
  for p = 0 to Array.length perms - 1 do
    try_perm c threads perms.(p) ~first:(p = 0)
  done

(* The first [len] codes of [c.best] as [k] threads of symbols. *)
let skeleton_of c ~k ~len =
  let threads = Array.make k [] and t = ref 0 and acc = ref [] in
  for i = 0 to len - 1 do
    match c.best.(i) with
    | 0 ->
        threads.(!t) <- List.rev !acc;
        acc := [];
        incr t
    | v -> acc := sym_of_code ~d:c.d v :: !acc
  done;
  threads

let canonical threads =
  Array.iter
    (List.iter (function
      | Ld l | St l | Um l -> if l < 0 then invalid_arg "Generate.canonical: negative location"
      | Fn | Fw -> ()))
    threads;
  let d = max 1 (nlocs threads) and k = Array.length threads in
  let codes = Array.map (fun t -> Array.of_list (List.map (code ~d) t)) threads in
  let len = Array.fold_left (fun acc t -> acc + Array.length t + 1) 0 codes in
  let c = canon ~d ~len in
  least c codes (permutations k);
  skeleton_of c ~k ~len

(* ------------------------------------------------------------------ *)
(* Enumeration                                                          *)

let alphabet (shape : Shape.t) =
  List.concat_map
    (fun l -> (Ld l :: St l :: (if shape.rmw then [ Um l ] else [])))
    (List.init shape.locs Fun.id)
  @ (if shape.fence then [ Fn ] else [])
  @ (if shape.wg_fence then [ Fw ] else [])

(* Every way to split [n] events over [k] threads, each getting >= 1. *)
let rec compositions n k =
  if k = 1 then if n >= 1 then [ [ n ] ] else []
  else
    List.concat
      (List.init (n - k + 1) (fun i ->
           let first = i + 1 in
           List.map (fun rest -> first :: rest) (compositions (n - first) (k - 1))))

(* The threads of one length: their code arrays, in the order the
   alphabet's nested loops reach them, and per thread a bitmask of the
   locations it touches and of those it writes. *)
type threads = { seqs : int array array; touched : int array; written : int array }

(* All code sequences of [len] over [alpha], pruning fences that cannot
   order anything: leading, trailing, or adjacent to another fence. *)
let threads_of_length ~d alpha len =
  let out = ref [] and buf = Array.make len 0 in
  let rec go pos prev_fence =
    if pos = len then (if not prev_fence then out := Array.copy buf :: !out)
    else
      List.iter
        (fun s ->
          let fence = s < 3 in
          if not (fence && prev_fence) then begin
            buf.(pos) <- s;
            go (pos + 1) fence
          end)
        alpha
  in
  go 0 true;
  let seqs = Array.of_list (List.rev !out) in
  (* Stores and RMWs have codes from 3 + d up. *)
  let mask ~writes t =
    Array.fold_left
      (fun m s ->
        if s >= 3 && ((not writes) || s >= 3 + d) then m lor (1 lsl ((s - 3) mod d)) else m)
      0 t
  in
  {
    seqs;
    touched = Array.map (mask ~writes:false) seqs;
    written = Array.map (mask ~writes:true) seqs;
  }

(* A program is statically interesting when every thread touches
   memory, something writes, and some location is written by one thread
   and touched by another — otherwise no target could ever derive. *)
let interesting ~k touched written =
  let ok = ref true and conflict = ref false in
  for i = 0 to k - 1 do
    if touched.(i) = 0 then ok := false;
    for j = 0 to k - 1 do
      if i <> j && written.(i) land touched.(j) <> 0 then conflict := true
    done
  done;
  !ok && !conflict

(* The least code string of a program the enumerator reaches as one int:
   4 bits a code, most significant first. Its leading code is nonzero,
   so the int determines the string. It takes codes below 16 (at most 4
   locations) and at most 15 of them (events + threads); a shape
   [Shape.validate] accepts has at most 3 threads, 6 events and 3
   locations, so its strings are at most 9 codes below 12, 36 bits. *)
let pack c ~len =
  let key = ref 0 in
  for i = 0 to len - 1 do
    key := (!key lsl 4) lor c.best.(i)
  done;
  !key

(* The dedup set of packed keys. Every key ends in a 0 code, so the
   hash mixes the high bits down. *)
module Keys = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k * 0x2545F4914F6CDD1D) lsr 20
end)

let enumerate (shape : Shape.t) =
  let d = shape.locs in
  if 3 + (3 * d) > 16 || shape.events + shape.threads > 15 then
    invalid_arg (Format.asprintf "Generate.enumerate: %a is too wide to pack" Shape.pp shape);
  let alpha = List.map (code ~d) (alphabet shape) in
  let by_length = Array.init (max 0 shape.events) (threads_of_length ~d alpha) in
  let seen = Keys.create 1024 in
  let out = ref [] and raw = ref 0 in
  let c = canon ~d ~len:(shape.events + shape.threads) in
  for k = 2 to shape.threads do
    let perms = permutations k in
    let threads = Array.make k [||] and touched = Array.make k 0 and written = Array.make k 0 in
    for n = k to shape.events do
      let len = n + k in
      List.iter
        (fun lens ->
          let rec fill i = function
            | [] ->
                if interesting ~k touched written then begin
                  incr raw;
                  least c threads perms;
                  let key = pack c ~len in
                  if not (Keys.mem seen key) then begin
                    Keys.add seen key ();
                    out := skeleton_of c ~k ~len :: !out
                  end
                end
            | l :: rest ->
                let ts = by_length.(l) in
                for s = 0 to Array.length ts.seqs - 1 do
                  threads.(i) <- ts.seqs.(s);
                  touched.(i) <- ts.touched.(s);
                  written.(i) <- ts.written.(s);
                  fill (i + 1) rest
                done
          in
          fill 0 lens)
        (compositions n k)
    done
  done;
  (List.rev !out, !raw)

(* ------------------------------------------------------------------ *)
(* Concretisation                                                       *)

let of_threads threads =
  Array.map
    (List.map (function
      | Instr.Load { loc; _ } -> Ld loc
      | Instr.Store { loc; _ } -> St loc
      | Instr.Rmw { loc; _ } -> Um loc
      | Instr.Fence { scope = Scope.Device } -> Fn
      | Instr.Fence { scope = Scope.Workgroup } -> Fw))
    threads

let concretize sk =
  let next_value = Hashtbl.create 4 and next_reg = Hashtbl.create 4 in
  let fresh tbl key =
    let v = try Hashtbl.find tbl key with Not_found -> 0 in
    Hashtbl.replace tbl key (v + 1);
    v
  in
  Array.mapi
    (fun tid syms ->
      List.map
        (function
          | Ld l -> Instr.load ~reg:(fresh next_reg tid) ~loc:l ()
          | St l -> Instr.store ~loc:l ~value:(1 + fresh next_value l) ()
          | Um l -> Instr.rmw ~reg:(fresh next_reg tid) ~loc:l ~value:(1 + fresh next_value l) ()
          | Fn -> Instr.fence ()
          | Fw -> Instr.fence ~scope:Scope.Workgroup ())
        syms)
    sk

(* ------------------------------------------------------------------ *)
(* Seeded sampling                                                      *)

let sample ~seed ~bound xs =
  let n = List.length xs in
  if bound >= n then xs
  else begin
    let idx = Array.init n Fun.id in
    let g = Prng.create seed in
    Prng.shuffle_in_place g idx;
    let chosen = Array.sub idx 0 (max 0 bound) in
    Array.sort compare chosen;
    let arr = Array.of_list xs in
    Array.to_list (Array.map (fun i -> arr.(i)) chosen)
  end

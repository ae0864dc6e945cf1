type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }
let of_int64 s = { state = s }
let copy g = { state = g.state }

(* SplitMix64 (Steele, Lea, Flood 2014): state advances by the 64-bit golden
   ratio; output is the state pushed through two xor-shift-multiply rounds. *)
let next_int64 g =
  g.state <- Int64.add g.state golden;
  let z = g.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split g = { state = next_int64 g }

let bits62 g = Int64.to_int (Int64.shift_right_logical (next_int64 g) 2)

let int g n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let bound = n in
  let max62 = (1 lsl 62) - 1 in
  let limit = max62 - (max62 mod bound) in
  let rec draw () =
    let v = bits62 g in
    if v >= limit then draw () else v mod bound
  in
  draw ()

let float g x =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 g) 11) in
  x *. (v /. 9007199254740992.0 (* 2^53 *))

let bool g = Int64.logand (next_int64 g) 1L = 1L

let bernoulli g p = if p <= 0. then false else if p >= 1. then true else float g 1.0 < p

let exponential g mean =
  if mean <= 0. then 0.
  else
    let u = float g 1.0 in
    let u = if u <= 0. then epsilon_float else u in
    -.mean *. log u

let shuffle_in_place g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick g a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int g (Array.length a))

let mix a b =
  let g = { state = Int64.logxor (Int64.of_int a) (Int64.mul (Int64.of_int b) golden) } in
  bits62 g

let state g = g.state
let set_state g s = g.state <- s

(* Allocation-free mirror of the generator for hot loops. The state lives
   in caller-owned [Bytes.t] storage, so advancing it is a raw 8-byte
   store instead of a fresh [int64] box, and with the draw functions
   inlined the compiler keeps every intermediate [int64]/[float] unboxed.
   Each function must consume exactly the draws of its boxed counterpart
   above — the simulator's bit-identity contract depends on it. *)
module Raw = struct
  type state = Bytes.t

  (* The compiler's raw 64-bit bytes accesses (native endianness). The
     stdlib's [Bytes.get_int64_le]/[set_int64_le] wrappers are not
     [@inline] and a non-flambda build leaves them as out-of-line calls,
     which forces a boxed [int64] per draw — the exact allocation this
     module exists to avoid. With the primitives used directly, cmmgen's
     local unboxing keeps the whole draw chain in registers. Offset 0 is
     always in bounds: states come from [make]. *)
  external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
  external unsafe_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

  let make () = Bytes.make 8 '\000'

  let load b g = unsafe_set64 b 0 g.state
  let store b g = g.state <- unsafe_get64 b 0

  let[@inline always] next_int64 b =
    let s = Int64.add (unsafe_get64 b 0) golden in
    unsafe_set64 b 0 s;
    let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let[@inline always] split_into ~child ~parent =
    unsafe_set64 child 0 (next_int64 parent)

  let[@inline always] bits62 b = Int64.to_int (Int64.shift_right_logical (next_int64 b) 2)

  let int b n =
    if n <= 0 then invalid_arg "Prng.Raw.int: bound must be positive";
    let max62 = (1 lsl 62) - 1 in
    let limit = max62 - (max62 mod n) in
    let v = ref (bits62 b) in
    while !v >= limit do
      v := bits62 b
    done;
    !v mod n

  let shuffle_in_place b (a : int array) ~len =
    for i = len - 1 downto 1 do
      let j = int b (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done

  let[@inline always] float b x =
    let v = Int64.to_float (Int64.shift_right_logical (next_int64 b) 11) in
    x *. (v /. 9007199254740992.0 (* 2^53 *))

  let[@inline always] bernoulli b p =
    if p <= 0. then false else if p >= 1. then true else float b 1.0 < p

  let[@inline always] exponential b mean =
    if mean <= 0. then 0.
    else
      let u = float b 1.0 in
      let u = if u <= 0. then epsilon_float else u in
      -.mean *. log u
end

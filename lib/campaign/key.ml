module Jsonw = Mcm_util.Jsonw
module Litmus = Mcm_litmus.Litmus
module Instr = Mcm_litmus.Instr
module Model = Mcm_memmodel.Model
module Device = Mcm_gpu.Device
module Bug = Mcm_gpu.Bug

type t = int64

(* v2: first-class memory scopes — instructions carry a scope, events
   carry workgroup ids, scoped fences change engine and oracle
   semantics, and [scopeDrop] joins the bug vector. Pre-scope cells
   must never alias scoped ones, so the whole store re-addresses. *)
let code_version = "mcm-cell-v2"

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* A for loop over [unsafe_get], not a [String.iter] closure: the state
   stays an unboxed local instead of a boxed [Int64] per byte. *)
let fnv1a64 s =
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) fnv_prime
  done;
  !h

let of_string = fnv1a64

let of_fields kvs =
  fnv1a64 (Jsonw.to_string (Jsonw.Obj (("codeVersion", Jsonw.String code_version) :: kvs)))

(* Canonical test serialization: the structural content of the test, not
   its identity. The target predicate is a closure; its canonical form is
   [target_desc], which every generator renders deterministically from
   the derived outcome set. *)
let test_blob_uncached (test : Litmus.t) =
  let thread instrs =
    Jsonw.List (List.map (fun i -> Jsonw.String (Instr.to_string ~loc_names:Litmus.loc_name i)) instrs)
  in
  Jsonw.to_string
    (Jsonw.Obj
       [
         ("name", Jsonw.String test.Litmus.name);
         ("family", Jsonw.String test.Litmus.family);
         ("model", Jsonw.String (Model.name test.Litmus.model));
         ("nlocs", Jsonw.Int test.Litmus.nlocs);
         ("threads", Jsonw.List (Array.to_list (Array.map thread test.Litmus.threads)));
         ("target", Jsonw.String test.Litmus.target_desc);
       ])

(* Tests are immutable values and the shipped suites are memoized
   singletons, so a physical-equality check on the cached entry is both
   safe and exact; a different test that reuses a name is re-serialized.
   (Structural equality is unavailable: [target] is a closure.) Domain-
   local, so no locks; bounded, reset wholesale when full. *)
let blob_cache_max = 256

let blob_cache_key : (string, Litmus.t * string) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let test_blob (test : Litmus.t) =
  let cache = Domain.DLS.get blob_cache_key in
  match Hashtbl.find_opt cache test.Litmus.name with
  | Some (t, blob) when t == test -> blob
  | _ ->
      if Hashtbl.length cache >= blob_cache_max then Hashtbl.reset cache;
      let blob = test_blob_uncached test in
      Hashtbl.replace cache test.Litmus.name (test, blob);
      blob

let device_fields (device : Device.t) =
  let effect = Device.effect device in
  [
    ("profile", Jsonw.String device.Device.profile.Mcm_gpu.Profile.short_name);
    ( "bugs",
      Jsonw.Obj
        [
          ("corrReorder", Jsonw.Float effect.Bug.p_corr_reorder);
          ("fenceDrop", Jsonw.Float effect.Bug.p_fence_drop);
          ("coherenceAlias", Jsonw.Float effect.Bug.p_coherence_alias);
          ("scopeDrop", Jsonw.Float effect.Bug.p_scope_drop);
        ] );
  ]

(* The kernel's code version rides in every cell key (not just kernel-
   engine cells: the interpreter is differentially locked to the kernel,
   so a kernel-semantics bump invalidates both engines' results at
   once). Bumping [Kernel.code_version] therefore re-addresses the whole
   store, which is the point: schema-era results never alias pre-schema
   ones. *)
let kernel_version_field = ("kernelVersion", Jsonw.Int Mcm_gpu.Kernel.code_version)

(* The cell prefix: every field of {!cell_fields} except the payload
   kind, iteration count and seed. Cells sharing a prefix share all of
   the runner's derived setup (compiled image, effective weak params,
   instance counts, slice horizon) — this list is the canonical identity
   under which that work may be memoized. *)
let prefix_fields ~engine ~test ~device ~env () =
  [
    kernel_version_field;
    ("engine", Jsonw.String engine);
    ("test", Jsonw.String (test_blob test));
  ]
  @ device_fields device
  @ [ ("env", env) ]

let cell_fields ~kind ~engine ~test ~device ~env ~iterations ~seed () =
  (("kind", Jsonw.String kind) :: prefix_fields ~engine ~test ~device ~env ())
  @ [ ("iterations", Jsonw.Int iterations); ("seed", Jsonw.Int seed) ]

let cell ~kind ~engine ~test ~device ~env ~iterations ~seed () =
  of_fields (cell_fields ~kind ~engine ~test ~device ~env ~iterations ~seed ())

let equal = Int64.equal
let compare = Int64.compare
let hash k = Int64.to_int k land max_int

let to_hex k = Printf.sprintf "%016Lx" k

let of_hex s =
  if String.length s <> 16 then Error (Printf.sprintf "bad key %S: want 16 hex digits" s)
  else
    let ok =
      String.for_all
        (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
        s
    in
    if not ok then Error (Printf.sprintf "bad key %S: non-hex character" s)
    else
      (* Parse as two halves: a 16-digit hex value with the top bit set
         overflows Int64.of_string's signed range. *)
      let half sub = Int64.of_string ("0x" ^ sub) in
      let hi = half (String.sub s 0 8) and lo = half (String.sub s 8 8) in
      Ok (Int64.logor (Int64.shift_left hi 32) lo)

let pp fmt k = Format.pp_print_string fmt (to_hex k)

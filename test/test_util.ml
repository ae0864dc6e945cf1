(* Tests for mcm_util: PRNG determinism and distribution sanity, number
   theory behind the parallel permutation, table/JSON rendering. *)

module Prng = Mcm_util.Prng
module Numbers = Mcm_util.Numbers
module Table = Mcm_util.Table
module Jsonw = Mcm_util.Jsonw

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* -------------------------------------------------------------------- *)
(* PRNG                                                                   *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check "same stream" true (Prng.next_int64 a = Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Prng.next_int64 a <> Prng.next_int64 b then differs := true
  done;
  check "different seeds differ" true !differs

let test_prng_split_independent () =
  let g = Prng.create 7 in
  let h = Prng.split g in
  let a = Prng.next_int64 g and b = Prng.next_int64 h in
  check "split streams differ" true (a <> b)

let test_prng_copy () =
  let g = Prng.create 9 in
  ignore (Prng.next_int64 g);
  let h = Prng.copy g in
  check "copy continues identically" true (Prng.next_int64 g = Prng.next_int64 h)

let test_prng_int_range () =
  let g = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int g 7 in
    check "int in range" true (v >= 0 && v < 7)
  done

let test_prng_int_invalid () =
  let g = Prng.create 3 in
  Alcotest.check_raises "non-positive bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_prng_int_covers () =
  let g = Prng.create 5 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Prng.int g 5) <- true
  done;
  Array.iteri (fun i s -> check (Printf.sprintf "value %d seen" i) true s) seen

let test_prng_float_range () =
  let g = Prng.create 11 in
  for _ = 1 to 1000 do
    let v = Prng.float g 2.5 in
    check "float in range" true (v >= 0. && v < 2.5)
  done

let test_prng_bernoulli_extremes () =
  let g = Prng.create 13 in
  for _ = 1 to 50 do
    check "p=0 never true" false (Prng.bernoulli g 0.);
    check "p=1 always true" true (Prng.bernoulli g 1.);
    check "p<0 never true" false (Prng.bernoulli g (-0.5));
    check "p>1 always true" true (Prng.bernoulli g 1.5)
  done

let test_prng_bernoulli_rate () =
  let g = Prng.create 17 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.bernoulli g 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check "rate near 0.3" true (abs_float (rate -. 0.3) < 0.02)

let test_prng_exponential () =
  let g = Prng.create 19 in
  check "mean<=0 gives 0" true (Prng.exponential g 0. = 0.);
  check "mean<0 gives 0" true (Prng.exponential g (-1.) = 0.);
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    let v = Prng.exponential g 4.0 in
    check "non-negative" true (v >= 0.);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  check "sample mean near 4" true (abs_float (mean -. 4.0) < 0.25)

let test_prng_shuffle_permutes () =
  let g = Prng.create 23 in
  let a = Array.init 20 (fun i -> i) in
  Prng.shuffle_in_place g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 20 (fun i -> i)) sorted

let test_prng_pick () =
  let g = Prng.create 29 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    check "picked element" true (Array.mem (Prng.pick g a) a)
  done;
  Alcotest.check_raises "empty array" (Invalid_argument "Prng.pick: empty array") (fun () ->
      ignore (Prng.pick g [||]))

let test_prng_mix_deterministic () =
  check_int "mix stable" (Prng.mix 1 2) (Prng.mix 1 2);
  check "mix distinguishes" true (Prng.mix 1 2 <> Prng.mix 2 1)

(* -------------------------------------------------------------------- *)
(* Number theory / permutation                                            *)

let test_gcd () =
  check_int "gcd 12 18" 6 (Numbers.gcd 12 18);
  check_int "gcd 7 13" 1 (Numbers.gcd 7 13);
  check_int "gcd 0 5" 5 (Numbers.gcd 0 5);
  check_int "gcd 5 0" 5 (Numbers.gcd 5 0);
  check_int "gcd 0 0" 0 (Numbers.gcd 0 0);
  check_int "gcd negative" 6 (Numbers.gcd (-12) 18)

let test_coprime () =
  check "3 coprime 8" true (Numbers.coprime 3 8);
  check "6 not coprime 8" false (Numbers.coprime 6 8)

let test_random_coprime () =
  let g = Prng.create 31 in
  for _ = 1 to 200 do
    let n = 2 + Prng.int g 100 in
    let p = Numbers.random_coprime g n in
    check "coprime result" true (n <= 2 || Numbers.coprime p n);
    check "in range" true (p >= 1 && (n <= 2 || p < n))
  done

let test_permute_bijection () =
  (* The paper's permutation (v*P) mod N is a bijection iff gcd(P,N)=1. *)
  let g = Prng.create 37 in
  for _ = 1 to 50 do
    let n = 2 + Prng.int g 64 in
    let p = Numbers.random_coprime g n in
    let seen = Array.make n false in
    for v = 0 to n - 1 do
      seen.(Numbers.permute ~p ~n v) <- true
    done;
    Array.iteri (fun i s -> check (Printf.sprintf "image covers %d" i) true s) seen
  done

let test_permute_not_bijection_when_not_coprime () =
  let n = 8 and p = 6 in
  check "not a permutation" false (Numbers.is_permutation ~p ~n);
  let seen = Array.make n false in
  for v = 0 to n - 1 do
    seen.(Numbers.permute ~p ~n v) <- true
  done;
  check "image misses something" true (Array.exists not seen)

let test_ceil_div () =
  check_int "exact" 3 (Numbers.ceil_div 9 3);
  check_int "round up" 4 (Numbers.ceil_div 10 3);
  check_int "one" 1 (Numbers.ceil_div 1 256)

(* -------------------------------------------------------------------- *)
(* Table rendering                                                        *)

let test_table_render () =
  let t = Table.create [ "name"; "score" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "20" ];
  let s = Table.render t in
  let lines = String.split_on_char '\n' s in
  check_int "line count" 5 (List.length lines);
  (* header, rule, 2 rows, trailing empty *)
  check_str "header" "name   score" (List.nth lines 0);
  check_str "row right-aligned" "alpha      1" (List.nth lines 2)

let test_table_pads_short_rows () =
  let t = Table.create [ "a"; "b"; "c" ] in
  Table.add_row t [ "x" ];
  let s = Table.render t in
  check "renders" true (String.length s > 0)

let test_table_rejects_long_rows () =
  let t = Table.create [ "a" ] in
  Alcotest.check_raises "too many cells" (Invalid_argument "Table.add_row: too many cells")
    (fun () -> Table.add_row t [ "1"; "2" ])

let test_table_cells () =
  check_str "float" "3.14" (Table.float_cell ~decimals:2 3.14159);
  check_str "nan" "nan" (Table.float_cell Float.nan);
  check_str "inf" "inf" (Table.float_cell Float.infinity);
  check_str "rate zero" "0" (Table.rate_cell 0.);
  check_str "rate small" "0.0042" (Table.rate_cell 0.0042);
  check_str "rate plain" "12.3" (Table.rate_cell 12.34);
  check_str "rate K" "35.0K" (Table.rate_cell 35_000.);
  check_str "rate M" "1.2M" (Table.rate_cell 1_200_000.);
  check_str "pct" "83.6%" (Table.pct_cell 0.836)

(* -------------------------------------------------------------------- *)
(* JSON                                                                   *)

let test_json_scalars () =
  check_str "null" "null" (Jsonw.to_string Jsonw.Null);
  check_str "true" "true" (Jsonw.to_string (Jsonw.Bool true));
  check_str "int" "42" (Jsonw.to_string (Jsonw.Int 42));
  check_str "string" "\"hi\"" (Jsonw.to_string (Jsonw.String "hi"))

let test_json_escaping () =
  check_str "quotes" "\"a\\\"b\"" (Jsonw.to_string (Jsonw.String "a\"b"));
  check_str "newline" "\"a\\nb\"" (Jsonw.to_string (Jsonw.String "a\nb"));
  check_str "control" "\"\\u0001\"" (Jsonw.to_string (Jsonw.String "\001"))

let test_json_structures () =
  let v = Jsonw.Obj [ ("xs", Jsonw.List [ Jsonw.Int 1; Jsonw.Int 2 ]); ("ok", Jsonw.Bool false) ] in
  check_str "object" "{\"xs\":[1,2],\"ok\":false}" (Jsonw.to_string v)

let test_json_nonfinite_floats () =
  check_str "nan" "\"nan\"" (Jsonw.to_string (Jsonw.Float Float.nan));
  check_str "inf" "\"inf\"" (Jsonw.to_string (Jsonw.Float Float.infinity))

(* -------------------------------------------------------------------- *)
(* JSON parsing                                                           *)

module Jsonp = Mcm_util.Jsonp

let test_parse_scalars () =
  check "null" true (Jsonp.parse "null" = Ok Jsonw.Null);
  check "true" true (Jsonp.parse "true" = Ok (Jsonw.Bool true));
  check "false" true (Jsonp.parse "false" = Ok (Jsonw.Bool false));
  check "int" true (Jsonp.parse "42" = Ok (Jsonw.Int 42));
  check "negative int" true (Jsonp.parse "-7" = Ok (Jsonw.Int (-7)));
  check "float" true (Jsonp.parse "2.5" = Ok (Jsonw.Float 2.5));
  check "exponent" true (Jsonp.parse "1e3" = Ok (Jsonw.Float 1000.));
  check "string" true (Jsonp.parse "\"hi\"" = Ok (Jsonw.String "hi"))

let test_parse_structures () =
  check "empty array" true (Jsonp.parse "[]" = Ok (Jsonw.List []));
  check "empty object" true (Jsonp.parse "{}" = Ok (Jsonw.Obj []));
  check "nested" true
    (Jsonp.parse "{\"a\": [1, 2], \"b\": {\"c\": null}}"
    = Ok
        (Jsonw.Obj
           [
             ("a", Jsonw.List [ Jsonw.Int 1; Jsonw.Int 2 ]);
             ("b", Jsonw.Obj [ ("c", Jsonw.Null) ]);
           ]));
  check "whitespace tolerated" true
    (Jsonp.parse "  [ 1 ,\n 2 ]  " = Ok (Jsonw.List [ Jsonw.Int 1; Jsonw.Int 2 ]))

let test_parse_escapes () =
  check "escaped quote" true (Jsonp.parse "\"a\\\"b\"" = Ok (Jsonw.String "a\"b"));
  check "newline" true (Jsonp.parse "\"a\\nb\"" = Ok (Jsonw.String "a\nb"));
  check "unicode" true (Jsonp.parse "\"\\u0041\"" = Ok (Jsonw.String "A"));
  check "two-byte unicode" true (Jsonp.parse "\"\\u00e9\"" = Ok (Jsonw.String "\xc3\xa9"))

let test_parse_errors () =
  List.iter
    (fun src -> check ("rejects " ^ src) true (Result.is_error (Jsonp.parse src)))
    [ ""; "{"; "[1,"; "\"unterminated"; "tru"; "1 2"; "{\"a\" 1}"; "{1: 2}"; "[1,]x" ]

let test_json_accessors () =
  let v = Jsonw.Obj [ ("n", Jsonw.Int 3); ("f", Jsonw.Float 1.5); ("s", Jsonw.String "x") ] in
  check "member" true (Jsonp.member "n" v = Some (Jsonw.Int 3));
  check "missing member" true (Jsonp.member "zz" v = None);
  check "to_float of int" true (Jsonp.to_float (Jsonw.Int 3) = Some 3.);
  check "to_float of float" true (Jsonp.to_float (Jsonw.Float 1.5) = Some 1.5);
  check "to_int" true (Jsonp.to_int (Jsonw.Int 3) = Some 3);
  check "to_int rejects float" true (Jsonp.to_int (Jsonw.Float 1.5) = None);
  check "to_string_opt" true (Jsonp.to_string_opt (Jsonw.String "x") = Some "x");
  check "to_list of non-list" true (Jsonp.to_list Jsonw.Null = [])

(* -------------------------------------------------------------------- *)
(* Properties                                                             *)

let prop_permute_bijective =
  QCheck.Test.make ~count:200 ~name:"coprime multiplication permutes [0,n)"
    QCheck.(pair (int_range 1 97) (int_range 1 96))
    (fun (n, p0) ->
      let p = 1 + (p0 mod n) in
      QCheck.assume (Numbers.coprime p n);
      let image = List.init n (fun v -> Numbers.permute ~p ~n v) in
      List.sort_uniq compare image = List.init n (fun i -> i))

let prop_gcd_divides =
  QCheck.Test.make ~count:500 ~name:"gcd divides both arguments"
    QCheck.(pair (int_range 1 10_000) (int_range 1 10_000))
    (fun (a, b) ->
      let g = Numbers.gcd a b in
      g > 0 && a mod g = 0 && b mod g = 0)

let prop_prng_int_in_range =
  QCheck.Test.make ~count:500 ~name:"Prng.int stays in range"
    QCheck.(pair int (int_range 1 1_000_000))
    (fun (seed, n) ->
      let g = Prng.create seed in
      let v = Prng.int g n in
      v >= 0 && v < n)

let prop_json_roundtrip_ints =
  QCheck.Test.make ~count:200 ~name:"ints print as themselves" QCheck.int (fun i ->
      Jsonw.to_string (Jsonw.Int i) = string_of_int i)

(* A generator of arbitrary JSON values for the write-then-parse
   round-trip property. Floats include the non-finite values (written as
   the strings "nan"/"inf"/"-inf" — the store's codecs rely on that) and
   strings include control characters, which the writer must escape as
   \uXXXX for the parser to recover. *)
let arbitrary_json =
  let open QCheck.Gen in
  let any_float =
    frequency
      [
        (6, float_range (-1e6) 1e6);
        (2, float);
        (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.; 1e-310 ]);
      ]
  in
  let json_string =
    string_size
      ~gen:(frequency [ (8, printable); (1, map Char.chr (int_bound 0x1f)) ])
      (int_bound 12)
  in
  let scalar =
    oneof
      [
        return Jsonw.Null;
        map (fun b -> Jsonw.Bool b) bool;
        map (fun i -> Jsonw.Int i) small_signed_int;
        map (fun f -> Jsonw.Float f) any_float;
        map (fun s -> Jsonw.String s) json_string;
      ]
  in
  let value =
    sized (fun budget ->
        fix
          (fun self budget ->
            if budget <= 0 then scalar
            else
              frequency
                [
                  (3, scalar);
                  (1, map (fun items -> Jsonw.List items) (list_size (int_bound 4) (self (budget / 2))));
                  ( 1,
                    map
                      (fun kvs -> Jsonw.Obj kvs)
                      (list_size (int_bound 4)
                         (pair (string_size ~gen:printable (int_bound 8)) (self (budget / 2)))) );
                ])
          budget)
  in
  QCheck.make ~print:Jsonw.to_string value

let prop_json_write_parse_roundtrip =
  QCheck.Test.make ~count:300 ~name:"write/parse round-trip" arbitrary_json (fun v ->
      match Mcm_util.Jsonp.parse (Jsonw.to_string v) with
      | Ok v' ->
          (* Floats that print without fraction re-parse as ints, and
             non-finite floats are written as the strings "nan"/"inf"/
             "-inf"; compare through a normalising reprint. *)
          Jsonw.to_string v' = Jsonw.to_string v
          ||
          let norm = function
            | Jsonw.Int i -> Jsonw.Float (float_of_int i)
            | Jsonw.Float f when Float.is_nan f -> Jsonw.String "nan"
            | Jsonw.Float f when f = Float.infinity -> Jsonw.String "inf"
            | Jsonw.Float f when f = Float.neg_infinity -> Jsonw.String "-inf"
            | x -> x
          in
          let rec eq a b =
            match (norm a, norm b) with
            | Jsonw.List xs, Jsonw.List ys -> List.length xs = List.length ys && List.for_all2 eq xs ys
            | Jsonw.Obj xs, Jsonw.Obj ys ->
                List.length xs = List.length ys
                && List.for_all2 (fun (k, x) (l, y) -> k = l && eq x y) xs ys
            | a, b -> a = b
          in
          eq v v'
      | Error _ -> false)

(* Differential property: the unboxed Prng.Raw kernel must draw the
   exact stream of the boxed generator, op for op — the compiled
   instance kernel's results are only bit-identical to the interpreter's
   because of this. *)
type raw_op =
  | Draw
  | FloatDraw of float
  | Bernoulli of float
  | Exponential of float
  | Split
  | Int of int
  | Shuffle of int * int  (* array length, prefix shuffled *)

let arbitrary_raw_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (4, return Draw);
        (2, map (fun b -> FloatDraw b) (float_range 0.001 1000.));
        (2, map (fun p -> Bernoulli p) (float_range 0. 1.));
        (2, map (fun m -> Exponential m) (float_range 0. 50.));
        (1, return Split);
        (* Bounds near 2^62 make the rejection loop redraw. *)
        (2, map (fun n -> Int n) (oneof [ int_range 1 1000; int_range ((1 lsl 61) + 1) max_int ]));
        ( 1,
          int_range 0 40 >>= fun len ->
          map (fun extra -> Shuffle (len + extra, len)) (int_range 0 5) );
      ]
  in
  QCheck.make
    ~print:(fun (seed, ops) ->
      Printf.sprintf "seed %d, %d ops" seed (List.length ops))
    (pair int (list_size (int_range 1 64) op))

let prop_prng_raw_differential =
  QCheck.Test.make ~count:300 ~name:"Prng.Raw draws the boxed generator's exact stream"
    arbitrary_raw_ops
    (fun (seed, ops) ->
      let g = Prng.create seed in
      let st = Prng.Raw.make () in
      Prng.Raw.load st g;
      List.for_all
        (fun op ->
          match op with
          | Draw -> Prng.next_int64 g = Prng.Raw.next_int64 st
          | FloatDraw b -> Prng.float g b = Prng.Raw.float st b
          | Bernoulli p -> Prng.bernoulli g p = Prng.Raw.bernoulli st p
          | Exponential m -> Prng.exponential g m = Prng.Raw.exponential st m
          | Int n -> Prng.int g n = Prng.Raw.int st n
          | Shuffle (size, len) ->
              (* The raw shuffle permutes only the prefix of a larger
                 array, exactly as the boxed one permutes a whole array
                 of that length. *)
              let boxed = Array.init len (fun i -> i) in
              let raw = Array.init size (fun i -> i) in
              Prng.shuffle_in_place g boxed;
              Prng.Raw.shuffle_in_place st raw ~len;
              Array.sub raw 0 len = boxed
              && Array.sub raw len (size - len) = Array.init (size - len) (fun i -> len + i)
              && Prng.next_int64 g = Prng.Raw.next_int64 st
          | Split ->
              let child_boxed = Prng.split g in
              let child_raw = Prng.Raw.make () in
              Prng.Raw.split_into ~child:child_raw ~parent:st;
              (* The children must agree with each other, and consuming
                 them must not disturb the parents' agreement. *)
              Prng.next_int64 child_boxed = Prng.Raw.next_int64 child_raw
              && Prng.next_int64 g = Prng.Raw.next_int64 st)
        ops)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int invalid" `Quick test_prng_int_invalid;
          Alcotest.test_case "int covers" `Quick test_prng_int_covers;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "bernoulli extremes" `Quick test_prng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_prng_bernoulli_rate;
          Alcotest.test_case "exponential" `Quick test_prng_exponential;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "pick" `Quick test_prng_pick;
          Alcotest.test_case "mix" `Quick test_prng_mix_deterministic;
        ] );
      ( "numbers",
        [
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "coprime" `Quick test_coprime;
          Alcotest.test_case "random coprime" `Quick test_random_coprime;
          Alcotest.test_case "permute bijection" `Quick test_permute_bijection;
          Alcotest.test_case "permute non-coprime" `Quick test_permute_not_bijection_when_not_coprime;
          Alcotest.test_case "ceil_div" `Quick test_ceil_div;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "short rows padded" `Quick test_table_pads_short_rows;
          Alcotest.test_case "long rows rejected" `Quick test_table_rejects_long_rows;
          Alcotest.test_case "cell formatting" `Quick test_table_cells;
        ] );
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "structures" `Quick test_json_structures;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite_floats;
        ] );
      ( "json-parse",
        [
          Alcotest.test_case "scalars" `Quick test_parse_scalars;
          Alcotest.test_case "structures" `Quick test_parse_structures;
          Alcotest.test_case "escapes" `Quick test_parse_escapes;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_permute_bijective; prop_gcd_divides; prop_prng_int_in_range;
            prop_json_roundtrip_ints; prop_json_write_parse_roundtrip;
            prop_prng_raw_differential;
          ]
      );
    ]

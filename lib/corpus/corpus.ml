module Model = Mcm_memmodel.Model
module Litmus = Mcm_litmus.Litmus
module Parse = Mcm_litmus.Parse
module Mutator = Mcm_core.Mutator
module Suite = Mcm_core.Suite
module Engine = Mcm_oracle.Engine
module Certify = Mcm_oracle.Certify
module Key = Mcm_campaign.Key
module Pool = Mcm_util.Pool
module Jsonw = Mcm_util.Jsonw
module Jsonp = Mcm_util.Jsonp

type meta = {
  shape : Shape.t;
  model : Model.t;
  seed : int;
  bound : int option;
  ops : Mutator.op list;
  engine : Engine.t;
  shard : (int * int) option;
}

let default_meta =
  {
    shape = Shape.default;
    model = Model.Sc_per_location;
    seed = 0;
    bound = None;
    ops = Mutator.all_ops;
    engine = Engine.default;
    shard = None;
  }

type t = { meta : meta; entries : Admit.entry list; stats : Admit.stats }

let generate ?(cross_check = false) ?(domains = 1) meta =
  (* One pool serves both stages. *)
  let (gen_entries, gen_stats), (op_entries, op_stats) =
    Pool.with_pool ~domains (fun pool ->
        let generated =
          Admit.generated ~engine:meta.engine ~cross_check ~pool ?bound:meta.bound ~seed:meta.seed
            ?shard:meta.shard ~model:meta.model meta.shape
        in
        ( generated,
          if meta.ops = [] then ([], Admit.zero_stats)
          else
            Admit.operator_mutants ~engine:meta.engine ~cross_check ~pool ?shard:meta.shard
              ~ops:meta.ops
              (List.map (fun e -> e.Suite.test) (Suite.conformance_tests ())) ))
  in
  let entries, dups = Admit.dedup (gen_entries @ op_entries) in
  let count p = List.length (List.filter (fun (e : Admit.entry) -> e.polarity = p) entries) in
  let operator_mutants =
    List.length (List.filter (fun (e : Admit.entry) -> e.op <> None) entries)
  in
  let stats =
    {
      (Admit.combine_stats gen_stats op_stats) with
      admitted = List.length entries;
      conformance = count Admit.Conformance;
      weak = count Admit.Mutant_weak;
      interleaved = count Admit.Mutant_interleaved;
      operator_mutants;
      duplicates = gen_stats.Admit.duplicates + op_stats.Admit.duplicates + dups;
    }
  in
  { meta; entries; stats }

(* ------------------------------------------------------------------ *)
(* Content key                                                          *)

let opt_string = function None -> Jsonw.Null | Some s -> Jsonw.String s

let meta_fields meta =
  [
    ("corpusVersion", Jsonw.String Version.version);
    ("shape", Jsonw.Obj (Shape.fields meta.shape));
    ("model", Jsonw.String (Model.name meta.model));
    ("seed", Jsonw.Int meta.seed);
    ("bound", match meta.bound with None -> Jsonw.Null | Some b -> Jsonw.Int b);
    ("ops", Jsonw.List (List.map (fun o -> Jsonw.String (Mutator.op_name o)) meta.ops));
    ("engine", Jsonw.String (Engine.name meta.engine));
    ( "shard",
      match meta.shard with
      | None -> Jsonw.Null
      | Some (k, n) -> Jsonw.Obj [ ("index", Jsonw.Int k); ("of", Jsonw.Int n) ] );
  ]

let key t =
  Key.of_fields
    (("kind", Jsonw.String "corpus")
    :: meta_fields t.meta
    @ [
        ( "entries",
          Jsonw.List
            (List.map
               (fun (e : Admit.entry) ->
                 Jsonw.Obj
                   [
                     ("name", Jsonw.String e.test.Litmus.name);
                     ("polarity", Jsonw.String (Admit.polarity_name e.polarity));
                     ("skeleton", Jsonw.String e.skeleton);
                     ("parent", opt_string e.parent);
                     ("op", opt_string e.op);
                     ("blob", Jsonw.String (Key.test_blob e.test));
                   ])
               t.entries) );
      ])

(* ------------------------------------------------------------------ *)
(* Serialization                                                        *)

let entry_to_json (e : Admit.entry) =
  Jsonw.Obj
    [
      ("name", Jsonw.String e.test.Litmus.name);
      ("family", Jsonw.String e.test.Litmus.family);
      ("polarity", Jsonw.String (Admit.polarity_name e.polarity));
      ("skeleton", Jsonw.String e.skeleton);
      ("parent", opt_string e.parent);
      ("op", opt_string e.op);
      ( "verdict",
        Jsonw.Obj
          [
            ("ok", Jsonw.Bool e.verdict.Certify.ok);
            ("role", Jsonw.String e.verdict.Certify.role);
            ("detail", Jsonw.String e.verdict.Certify.detail);
          ] );
      ("source", Jsonw.String (Parse.to_source e.test));
    ]

(* v2: scoped corpora — meta records the shard slice, skeletons may
   carry workgroup fences. v1 files predate scopes and must not load
   silently into a scoped binary. *)
let format_version = 2

let to_json t =
  Jsonw.Obj
    (("formatVersion", Jsonw.Int format_version)
    :: meta_fields t.meta
    @ [
        ("key", Jsonw.String (Key.to_hex (key t)));
        ("stats", Jsonw.Obj (Admit.stats_fields t.stats));
        ("entries", Jsonw.List (List.map entry_to_json t.entries));
      ])

let to_string t = Jsonw.to_string (to_json t)

let save ~path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string t);
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Loading                                                              *)

let ( let* ) = Result.bind

let member_string what key j =
  match Option.bind (Jsonp.member key j) Jsonp.to_string_opt with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "%s: missing %s" what key)

let member_opt_string key j =
  match Jsonp.member key j with Some (Jsonw.String s) -> Some s | _ -> None

let entry_of_json j =
  let* name = member_string "corpus entry" "name" j in
  let what = "corpus entry " ^ name in
  let* family = member_string what "family" j in
  let* polarity_s = member_string what "polarity" j in
  let* polarity =
    match Admit.polarity_of_string polarity_s with
    | Some p -> Ok p
    | None -> Error (Printf.sprintf "%s: unknown polarity %S" what polarity_s)
  in
  let* skeleton = member_string what "skeleton" j in
  let* source = member_string what "source" j in
  let* parsed = Result.map_error (fun e -> what ^ ": " ^ e) (Parse.parse source) in
  if parsed.Litmus.name <> name then
    Error (Printf.sprintf "%s: source names %S" what parsed.Litmus.name)
  else
    let test = { parsed with Litmus.family } in
    let* verdict_json =
      match Jsonp.member "verdict" j with
      | Some v -> Ok v
      | None -> Error (what ^ ": missing verdict")
    in
    let* role = member_string what "role" verdict_json in
    let* detail = member_string what "detail" verdict_json in
    let ok = match Jsonp.member "ok" verdict_json with Some (Jsonw.Bool b) -> b | _ -> false in
    Ok
      {
        Admit.test;
        polarity;
        skeleton;
        parent = member_opt_string "parent" j;
        op = member_opt_string "op" j;
        verdict = { Certify.test = name; model = test.Litmus.model; role; ok; detail };
      }

let stats_of_json j =
  let get key =
    match Option.bind (Jsonp.member key j) Jsonp.to_int with Some v -> v | None -> 0
  in
  {
    Admit.raw = get "raw";
    programs = get "programs";
    candidates = get "candidates";
    admitted = get "admitted";
    conformance = get "conformance";
    weak = get "weak";
    interleaved = get "interleaved";
    operator_mutants = get "operatorMutants";
    rejected = get "rejected";
    duplicates = get "duplicates";
    uncertified = get "uncertified";
    disagreements = get "disagreements";
  }

let meta_of_json j =
  let* version = member_string "corpus" "corpusVersion" j in
  if version <> Version.version then
    Error
      (Printf.sprintf "corpus was generated by %S, this binary is %S — regenerate" version
         Version.version)
  else
    let* shape_json =
      match Jsonp.member "shape" j with Some s -> Ok s | None -> Error "corpus: missing shape"
    in
    let* shape = Shape.of_json shape_json in
    let* model_s = member_string "corpus" "model" j in
    let* model =
      match Model.of_string model_s with
      | Some m -> Ok m
      | None -> Error (Printf.sprintf "corpus: unknown model %S" model_s)
    in
    let* engine_s = member_string "corpus" "engine" j in
    let* engine =
      match Engine.of_string engine_s with
      | Some e -> Ok e
      | None -> Error (Printf.sprintf "corpus: unknown engine %S" engine_s)
    in
    let seed = match Option.bind (Jsonp.member "seed" j) Jsonp.to_int with Some s -> s | None -> 0 in
    let bound = Option.bind (Jsonp.member "bound" j) Jsonp.to_int in
    let* ops =
      match Jsonp.member "ops" j with
      | None -> Ok []
      | Some l ->
          List.fold_left
            (fun acc o ->
              let* acc = acc in
              match Option.bind (Jsonp.to_string_opt o) Mutator.op_of_string with
              | Some op -> Ok (op :: acc)
              | None -> Error "corpus: unknown operator in ops")
            (Ok []) (Jsonp.to_list l)
          |> Result.map List.rev
    in
    let* shard =
      match Jsonp.member "shard" j with
      | None | Some Jsonw.Null -> Ok None
      | Some s -> (
          match
            ( Option.bind (Jsonp.member "index" s) Jsonp.to_int,
              Option.bind (Jsonp.member "of" s) Jsonp.to_int )
          with
          | Some k, Some n when 0 <= k && k < n -> Ok (Some (k, n))
          | _ -> Error "corpus: malformed shard (want {index, of} with 0 <= index < of)")
    in
    Ok { shape; model; seed; bound; ops; engine; shard }

let of_string s =
  let* j = Jsonp.parse s in
  let* () =
    match Option.bind (Jsonp.member "formatVersion" j) Jsonp.to_int with
    | Some v when v = format_version -> Ok ()
    | Some v ->
        Error
          (Printf.sprintf
             "corpus file has formatVersion %d but this binary reads formatVersion %d (scoped \
              corpora) — regenerate with this binary"
             v format_version)
    | None -> Error "corpus: missing formatVersion"
  in
  let* meta = meta_of_json j in
  let* recorded_key = member_string "corpus" "key" j in
  let* entries =
    match Jsonp.member "entries" j with
    | None -> Error "corpus: missing entries"
    | Some l ->
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            let* entry = entry_of_json e in
            Ok (entry :: acc))
          (Ok []) (Jsonp.to_list l)
        |> Result.map List.rev
  in
  let stats =
    match Jsonp.member "stats" j with Some s -> stats_of_json s | None -> Admit.zero_stats
  in
  let t = { meta; entries; stats } in
  let recomputed = Key.to_hex (key t) in
  if recomputed <> recorded_key then
    Error
      (Printf.sprintf
         "corpus: content key mismatch (recorded %s, recomputed %s) — the file was edited or \
          written by a different generator"
         recorded_key recomputed)
  else Ok t

let load ~path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    of_string s
  with Sys_error e -> Error e

(* ------------------------------------------------------------------ *)
(* Re-certification                                                     *)

type recheck = {
  name : string;
  engines_agree : bool;
  matches_stored : bool;
  detail : string;
}

let recertify ?(domains = 1) t =
  let arr = Array.of_list t.entries in
  let rechecks =
    Pool.with_pool ~domains (fun pool ->
        Pool.map_array pool ~n:(Array.length arr) ~f:(fun i ->
            let (e : Admit.entry) = arr.(i) in
            let ve = Admit.certify ~engine:Engine.Enumerate e.polarity e.test in
            let vp = Admit.certify ~engine:Engine.Propagate e.polarity e.test in
            let agree =
              ve.Certify.ok = vp.Certify.ok && ve.Certify.detail = vp.Certify.detail
            in
            let matches =
              vp.Certify.ok = e.verdict.Certify.ok
              && vp.Certify.detail = e.verdict.Certify.detail
              && vp.Certify.role = e.verdict.Certify.role
            in
            let detail =
              if not agree then
                Printf.sprintf "engines disagree: enumerate %B (%s) vs propagate %B (%s)"
                  ve.Certify.ok ve.Certify.detail vp.Certify.ok vp.Certify.detail
              else if not matches then
                Printf.sprintf "verdict drifted: stored %B (%s), fresh %B (%s)"
                  e.verdict.Certify.ok e.verdict.Certify.detail vp.Certify.ok vp.Certify.detail
              else vp.Certify.detail
            in
            { name = e.test.Litmus.name; engines_agree = agree; matches_stored = matches; detail }))
  in
  Array.to_list rechecks

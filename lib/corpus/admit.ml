module Model = Mcm_memmodel.Model
module Litmus = Mcm_litmus.Litmus
module Enumerate = Mcm_litmus.Enumerate
module Classify = Mcm_litmus.Classify
module Mutator = Mcm_core.Mutator
module Engine = Mcm_oracle.Engine
module Outcome = Mcm_oracle.Outcome
module Certify = Mcm_oracle.Certify
module Key = Mcm_campaign.Key
module Pool = Mcm_util.Pool
module Jsonw = Mcm_util.Jsonw

type polarity = Conformance | Mutant_weak | Mutant_interleaved

let polarity_name = function
  | Conformance -> "conformance"
  | Mutant_weak -> "mutant-weak"
  | Mutant_interleaved -> "mutant-interleaved"

let polarity_of_string = function
  | "conformance" -> Some Conformance
  | "mutant-weak" -> Some Mutant_weak
  | "mutant-interleaved" -> Some Mutant_interleaved
  | _ -> None

type entry = {
  test : Litmus.t;
  polarity : polarity;
  skeleton : string;
  parent : string option;
  op : string option;
  verdict : Certify.verdict;
}

type stats = {
  raw : int;
  programs : int;
  candidates : int;
  admitted : int;
  conformance : int;
  weak : int;
  interleaved : int;
  operator_mutants : int;
  rejected : int;
  duplicates : int;
  uncertified : int;
  disagreements : int;
}

let zero_stats =
  {
    raw = 0;
    programs = 0;
    candidates = 0;
    admitted = 0;
    conformance = 0;
    weak = 0;
    interleaved = 0;
    operator_mutants = 0;
    rejected = 0;
    duplicates = 0;
    uncertified = 0;
    disagreements = 0;
  }

let combine_stats a b =
  {
    raw = a.raw + b.raw;
    programs = a.programs + b.programs;
    candidates = a.candidates + b.candidates;
    admitted = a.admitted + b.admitted;
    conformance = a.conformance + b.conformance;
    weak = a.weak + b.weak;
    interleaved = a.interleaved + b.interleaved;
    operator_mutants = a.operator_mutants + b.operator_mutants;
    rejected = a.rejected + b.rejected;
    duplicates = a.duplicates + b.duplicates;
    uncertified = a.uncertified + b.uncertified;
    disagreements = a.disagreements + b.disagreements;
  }

let stats_fields s =
  [
    ("raw", Jsonw.Int s.raw);
    ("programs", Jsonw.Int s.programs);
    ("candidates", Jsonw.Int s.candidates);
    ("admitted", Jsonw.Int s.admitted);
    ("conformance", Jsonw.Int s.conformance);
    ("weak", Jsonw.Int s.weak);
    ("interleaved", Jsonw.Int s.interleaved);
    ("operatorMutants", Jsonw.Int s.operator_mutants);
    ("rejected", Jsonw.Int s.rejected);
    ("duplicates", Jsonw.Int s.duplicates);
    ("uncertified", Jsonw.Int s.uncertified);
    ("disagreements", Jsonw.Int s.disagreements);
  ]

(* ------------------------------------------------------------------ *)
(* Target derivation                                                    *)

(* Render a target set exactly as Parse.to_source renders targets: a
   disjunction of full-outcome conjunctions (final locations first, then
   registers), over canonically sorted outcomes. Byte-compatibility here
   is what keeps store keys stable across print/parse round-trips. *)
let conjunction (o : Litmus.outcome) =
  let parts = ref [] in
  Array.iteri
    (fun l v -> parts := Printf.sprintf "%s == %d" (Litmus.loc_name l) v :: !parts)
    o.Litmus.final;
  Array.iteri
    (fun tid regs ->
      Array.iteri (fun r v -> parts := Printf.sprintf "P%d:r%d == %d" tid r v :: !parts) regs)
    o.Litmus.regs;
  "(" ^ String.concat " && " (List.rev !parts) ^ ")"

let describe = function
  | [] -> "false"
  | outcomes -> String.concat " || " (List.map conjunction outcomes)

let diff a b = List.filter (fun o -> not (List.mem o b)) a

(* The outcome frame a derivation works in. *)
type frame = {
  all : Litmus.outcome list;  (* every candidate outcome, sorted *)
  allowed : Litmus.outcome list;  (* consistent under the model *)
  sc : Litmus.outcome list;  (* consistent under plain SC *)
  serial : Litmus.outcome list;  (* whole-thread-at-a-time baseline *)
  ncandidates : int;
}

(* One engine's allowed and SC sets. The brute-force engine finds them in
   the one pass over the candidates that also yields every candidate
   outcome. *)
let engine_sets ~engine probe =
  match engine with
  | Engine.Enumerate ->
      let all, sc, allowed = Classify.outcome_sets probe in
      (Some all, allowed, sc)
  | Engine.Propagate ->
      ( None,
        Outcome.elements (Outcome.allowed ~engine probe.Litmus.model probe),
        Outcome.elements (Outcome.allowed ~engine Model.Sc probe) )

let probe ~model ~nlocs ~name threads =
  {
    Litmus.name;
    family = "corpus-probe";
    model;
    threads;
    nlocs;
    target = (fun _ -> false);
    target_desc = "false";
  }

let with_target probe ~name ~family set =
  {
    probe with
    Litmus.name;
    family;
    target = (fun o -> Litmus.outcome_mem o set);
    target_desc = describe set;
  }

(* Conformance: the outcomes the model forbids. Mutant ladder: weak
   behaviour if the model allows any, else SC-consistent behaviour that
   no serial execution reaches. *)
let conformance_set f = diff f.all f.allowed

let mutant_set f =
  match diff f.allowed f.sc with
  | _ :: _ as weak -> Some (Mutant_weak, weak)
  | [] -> ( match diff f.allowed f.serial with [] -> None | inter -> Some (Mutant_interleaved, inter))

let certify ~engine polarity test =
  match polarity with
  | Conformance -> Certify.conformance ~engine test
  | Mutant_weak | Mutant_interleaved ->
      Certify.mutant ~engine ~role:("corpus " ^ polarity_name polarity) test

(* One derivation under one engine, in its frame: the admitted entries
   (polarity, test, verdict) for a program, plus rejected/uncertified
   counts. *)
let derive ~engine ~skeleton ~base_name ~family ~parent ~op ~mutant_only p f =
  let consider =
    (if mutant_only then []
     else match conformance_set f with [] -> [] | set -> [ (Conformance, base_name ^ "-c", set) ])
    @
    match mutant_set f with
    | None -> []
    | Some (pol, set) ->
        let suffix = match pol with Mutant_weak -> "-w" | _ -> "-i" in
        [ (pol, base_name ^ suffix, set) ]
  in
  let entries, uncertified =
    List.fold_left
      (fun (acc, bad) (pol, name, set) ->
        let test = with_target p ~name ~family set in
        let verdict = certify ~engine pol test in
        if verdict.Certify.ok then
          ({ test; polarity = pol; skeleton; parent; op; verdict } :: acc, bad)
        else (acc, bad + 1))
      ([], 0) consider
  in
  let rejected = if consider = [] then 1 else 0 in
  (List.rev entries, f.ncandidates, rejected, uncertified)

let other_engine = function Engine.Enumerate -> Engine.Propagate | Engine.Propagate -> Engine.Enumerate

(* A derivation's observable admission verdict, for cross-engine
   comparison: what was admitted, with which target and certificate. *)
let verdict_fingerprint (entries, _, rejected, uncertified) =
  ( List.map
      (fun e ->
        ( e.test.Litmus.name,
          e.test.Litmus.target_desc,
          polarity_name e.polarity,
          e.verdict.Certify.ok,
          e.verdict.Certify.detail ))
      entries,
    rejected,
    uncertified )

(* Derive under [engine] and, with [cross_check], again under the other
   engine, counting a disagreement when the two verdicts differ. Each
   engine computes its own allowed and SC sets and its own certificates;
   the engine-independent parts of the frame are computed once. *)
let derive_checked ~engine ~cross_check ~model ~nlocs ~skeleton ~base_name ~family ~parent ~op
    ~mutant_only threads =
  let p = probe ~model ~nlocs ~name:base_name threads in
  match Litmus.well_formed p with
  | Error _ -> (([], 0, 1, 0), 0)
  | Ok () -> (
      let first_sets = engine_sets ~engine p in
      let second =
        if not cross_check then None
        else
          let other = other_engine engine in
          Some (other, engine_sets ~engine:other p)
      in
      let all =
        match (first_sets, second) with
        | (Some all, _, _), _ | _, Some (_, (Some all, _, _)) -> all
        | _ -> Enumerate.outcomes p
      in
      let serial = List.sort_uniq compare (Classify.sequential_outcomes p)
      and ncandidates = Enumerate.count p in
      let derive_under engine (_, allowed, sc) =
        derive ~engine ~skeleton ~base_name ~family ~parent ~op ~mutant_only p
          { all; allowed; sc; serial; ncandidates }
      in
      let first = derive_under engine first_sets in
      match second with
      | None -> (first, 0)
      | Some (other, sets) ->
          let second = derive_under other sets in
          (first, if verdict_fingerprint first = verdict_fingerprint second then 0 else 1))

(* ------------------------------------------------------------------ *)
(* Dedup                                                                *)

let entry_key e =
  e.skeleton ^ "|" ^ Model.name e.test.Litmus.model ^ "|" ^ polarity_name e.polarity

let dedup entries =
  let seen = Hashtbl.create 64 in
  let kept =
    List.filter
      (fun e ->
        let k = entry_key e in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      entries
  in
  (kept, List.length entries - List.length kept)

(* ------------------------------------------------------------------ *)
(* Parallel driving                                                     *)

let short_hash s = Printf.sprintf "%Lx" (Key.fnv1a64 s)

(* Deterministic fan-out: shard [(k, n)] keeps every [n]-th element
   starting at index [k] of the already-canonical, already-sampled
   candidate list. Shards are disjoint by construction and their union
   is the unsharded list, so N processes each do 1/N of the oracle
   work and their corpora merge without overlap. *)
let shard_slice shard l =
  match shard with
  | None -> l
  | Some (k, n) ->
      if n <= 0 || k < 0 || k >= n then
        invalid_arg (Printf.sprintf "Admit: bad shard %d/%d (want 0 <= index < count)" k n)
      else List.filteri (fun i _ -> i mod n = k) l

(* [f] over [0 .. n-1] on the lent pool, or serially without one. *)
let map_programs ?pool ~n f =
  match pool with None -> Array.init n f | Some pool -> Pool.map_array pool ~n ~f

(* Fold the per-program results, in program order, into one entry list
   and the running stats. *)
let collect stats results =
  let entries, stats =
    Array.fold_left
      (fun (acc, st) ((entries, cands, rejected, uncertified), disagreements) ->
        ( List.rev_append entries acc,
          {
            st with
            candidates = st.candidates + cands;
            rejected = st.rejected + rejected;
            uncertified = st.uncertified + uncertified;
            disagreements = st.disagreements + disagreements;
          } ))
      ([], stats) results
  in
  (List.rev entries, stats)

let count_polarity p entries = List.length (List.filter (fun e -> e.polarity = p) entries)

let generated ?(engine = Engine.default) ?(cross_check = false) ?pool ?bound ?(seed = 0) ?shard
    ~model shape =
  let skeletons, raw = Generate.enumerate shape in
  let sampled =
    match bound with None -> skeletons | Some b -> Generate.sample ~seed ~bound:b skeletons
  in
  let arr = Array.of_list (shard_slice shard sampled) in
  let family = Version.family ~tag:"generated" in
  let results =
    map_programs ?pool ~n:(Array.length arr) (fun i ->
        let sk = arr.(i) in
        let skeleton = Generate.to_string sk in
        let base_name = "g" ^ short_hash skeleton in
        derive_checked ~engine ~cross_check ~model ~nlocs:(Generate.nlocs sk) ~skeleton ~base_name
          ~family ~parent:None ~op:None ~mutant_only:false (Generate.concretize sk))
  in
  let entries, stats = collect { zero_stats with raw; programs = Array.length arr } results in
  let entries, dups = dedup entries in
  ( entries,
    {
      stats with
      admitted = List.length entries;
      conformance = count_polarity Conformance entries;
      weak = count_polarity Mutant_weak entries;
      interleaved = count_polarity Mutant_interleaved entries;
      duplicates = stats.duplicates + dups;
    } )

let operator_mutants ?(engine = Engine.default) ?(cross_check = false) ?pool ?shard ~ops tests =
  let variants =
    List.concat_map
      (fun test ->
        List.concat_map
          (fun op ->
            List.map
              (fun (label, threads) -> (test, op, label, threads))
              (Mutator.apply_op op test.Litmus.threads))
          ops)
      tests
  in
  let arr = Array.of_list (shard_slice shard variants) in
  let results =
    map_programs ?pool ~n:(Array.length arr) (fun i ->
        let parent, op, label, threads = arr.(i) in
        let op_name = Mutator.op_name op in
        let skeleton = Generate.to_string (Generate.canonical (Generate.of_threads threads)) in
        let base_name = Printf.sprintf "%s-%s-%s" parent.Litmus.name op_name label in
        derive_checked ~engine ~cross_check ~model:parent.Litmus.model ~nlocs:parent.Litmus.nlocs
          ~skeleton ~base_name
          ~family:(Version.family ~tag:("op-" ^ op_name))
          ~parent:(Some parent.Litmus.name) ~op:(Some op_name) ~mutant_only:true threads)
  in
  let entries, stats = collect { zero_stats with programs = Array.length arr } results in
  let entries, dups = dedup entries in
  ( entries,
    {
      stats with
      admitted = List.length entries;
      weak = count_polarity Mutant_weak entries;
      interleaved = count_polarity Mutant_interleaved entries;
      operator_mutants = List.length entries;
      duplicates = stats.duplicates + dups;
    } )

(* The seeded inputs of the three workloads.

   Every input the program receives is a pure function of the bench seed
   and a round index, so two runs with one seed submit the same bytes;
   [to_string] renders each round's inputs canonically for that check.
   Sizes are fixed here, not by the seed: the seed picks which tests,
   shards, environments and cell seeds a round uses, never how much work
   it is, so runs with different seeds stay comparable. *)

module Prng = Mcm_util.Prng
module Jsonw = Mcm_util.Jsonw
module Params = Mcm_testenv.Params
module Request = Mcm_testenv.Request
module Proto = Mcm_serve.Proto
module Corpus = Mcm_corpus.Corpus
module Shape = Mcm_corpus.Shape
module Tuning = Mcm_harness.Tuning

let stream seed tag round = Prng.create (Prng.mix (Prng.mix seed tag) round)

let permutation g n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Prng.int g (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* corpus-e2e: one shard of a scoped corpus per round                   *)

(* The 2x5x2 shape with device- and workgroup-scope fences is ~1800
   canonical programs and ~2400 admitted tests; one of 48 shards is a
   round of ~50 distinct tests. *)
let corpus_shape =
  match Shape.of_spec ~fence:true ~wg_fence:true "2x5x2" with
  | Ok s -> s
  | Error e -> invalid_arg e

let corpus_shards = 48
let corpus_iterations = 2
let corpus_device = "nvidia"
let corpus_env = Params.scaled Params.pte_baseline 0.02

type corpus_round = { meta : Corpus.meta; cell_seed : int }

(* Every 48 consecutive rounds visit each shard once, in a seeded order. *)
let corpus_round ~seed ~round =
  let order = permutation (stream seed 1 (round / corpus_shards)) corpus_shards in
  {
    meta =
      {
        Corpus.default_meta with
        Corpus.shape = corpus_shape;
        seed;
        shard = Some (order.(round mod corpus_shards), corpus_shards);
      };
    cell_seed = Prng.bits62 (stream seed 2 round);
  }

let corpus_cell_seed r i = Prng.mix r.cell_seed i

let corpus_to_string r =
  let shard_index, shards = Option.get r.meta.Corpus.shard in
  Jsonw.to_string
    (Jsonw.Obj
       [
         ("shape", Jsonw.Obj (Shape.fields r.meta.Corpus.shape));
         ("corpusSeed", Jsonw.Int r.meta.Corpus.seed);
         ("shard", Jsonw.List [ Jsonw.Int shard_index; Jsonw.Int shards ]);
         ("cellSeed", Jsonw.Int r.cell_seed);
         ("device", Jsonw.String corpus_device);
         ("env", Params.to_json corpus_env);
         ("iterations", Jsonw.Int corpus_iterations);
       ])

(* ------------------------------------------------------------------ *)
(* fig5-sweep: one Fig. 5 sweep per round                               *)

(* 32 mutants x 4 devices x 4 categories with one random environment per
   tunable category: 512 cells. The seed draws the environments and the
   cell seeds. At half the default environment scale a sweep is short
   enough for the hundred sweeps a p90 needs; the traced run's
   kernel.compile_s against runner.exec_s shows that instance execution
   still dominates it. *)
let fig5_config ~seed ~round =
  {
    Tuning.n_envs = 1;
    site_iterations = 4;
    pte_iterations = 1;
    scale = 0.01;
    seed = Prng.bits62 (stream seed 3 round);
  }

let fig5_to_string (c : Tuning.config) =
  Jsonw.to_string
    (Jsonw.Obj
       [
         ("nEnvs", Jsonw.Int c.Tuning.n_envs);
         ("siteIterations", Jsonw.Int c.Tuning.site_iterations);
         ("pteIterations", Jsonw.Int c.Tuning.pte_iterations);
         ("scale", Jsonw.Float c.Tuning.scale);
         ("seed", Jsonw.Int c.Tuning.seed);
       ])

(* ------------------------------------------------------------------ *)
(* serve-mixed: two lockstep clients, small mixed grids                 *)

let serve_devices = [| "nvidia"; "amd"; "intel"; "m1" |]
let serve_env = Params.scaled Params.pte_baseline 0.005
let serve_iterations = 6

type serve_round = {
  a : Proto.cell list;  (** client 0: 4 cold cells, then 4 warm repeats *)
  b : Proto.cell list;
      (** client 1, sent once [a] is acknowledged: duplicates of the last
          2 cold cells of [a] (still in flight), 2 cold cells, 4 warm
          repeats *)
  w : Proto.cell list;  (** client 0 afterwards: [a] and [b] again, all warm *)
  cold : Proto.cell list;  (** the round's 6 distinct cold cells *)
  warm : Proto.cell list;  (** the round's warm repeats (computed in earlier rounds) *)
}

let serve_cell g test =
  let device = serve_devices.(Prng.int g (Array.length serve_devices)) in
  let seed = Prng.bits62 g in
  {
    Proto.c_test = test;
    c_device = device;
    c_bugs = false;
    c_env = serve_env;
    c_iterations = serve_iterations;
    c_seed = seed;
    c_engine = Request.Kernel;
  }

(* Cold cells are new (test, device, seed) triples: half inline litmus
   sources the daemon has never parsed, half suite names. *)
let serve_cold ~seed ~sources ~names ~round =
  let g = stream seed 4 round in
  let src () = Proto.Source sources.(Prng.int g (Array.length sources)) in
  let name () = Proto.Name names.(Prng.int g (Array.length names)) in
  let a = List.map (fun t -> serve_cell g (t ())) [ src; name; src; name ] in
  let b = List.map (fun t -> serve_cell g (t ())) [ src; name ] in
  (a, b)

let serve_round ~seed ~sources ~names ~round =
  let cold_a, cold_b = serve_cold ~seed ~sources ~names ~round in
  let g = stream seed 5 round in
  let warm () =
    if round = 0 then []
    else
      List.init 4 (fun _ ->
          let a, b = serve_cold ~seed ~sources ~names ~round:(Prng.int g round) in
          let earlier = Array.of_list (a @ b) in
          earlier.(Prng.int g (Array.length earlier)))
  in
  let warm_a = warm () in
  let warm_b = warm () in
  let dups = List.filteri (fun i _ -> i >= 2) cold_a in
  let a = cold_a @ warm_a and b = dups @ cold_b @ warm_b in
  { a; b; w = a @ b; cold = cold_a @ cold_b; warm = warm_a @ warm_b }

let serve_to_string r =
  let cells l = Jsonw.List (List.map Proto.cell_to_json l) in
  Jsonw.to_string (Jsonw.Obj [ ("a", cells r.a); ("b", cells r.b); ("w", cells r.w) ])

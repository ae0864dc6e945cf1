(* What every workload shares: the run context, the metric sink, the
   round loop, the samples an untraced run reduces to its end-to-end
   metrics, and the per-layer summary of a traced run. *)

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  domains : int;  (** worker domains and daemon connections, at most nproc *)
  dir : string;  (** this run's scratch directory *)
  mcmutants : string;  (** the built [mcmutants] binary *)
  tally : Stats.tally;
  spans : Span.t;  (** enabled only in traced runs *)
  metrics : (string, float) Hashtbl.t;
}

let set c name v = Hashtbl.replace c.metrics name v

let add c name v =
  Hashtbl.replace c.metrics name (v +. Option.value ~default:0. (Hashtbl.find_opt c.metrics name))

let get c name = Option.value ~default:0. (Hashtbl.find_opt c.metrics name)
let path c name = Filename.concat c.dir name

let smoke_rounds = 2

(* Peak RSS is read once this many grid latencies are in, so runs report
   the high-water mark of the same amount of work however fast the
   machine is; a run that never gets there reads it at the end. *)
let rss_samples = 50

(* [loop c ~first f] runs rounds [f first], [f (first+1)], … until the
   time budget is spent (smoke runs stop after [smoke_rounds]) and
   records how many ran. Returns that number. *)
let loop c ?(first = 0) f =
  let t0 = Probe.now () in
  let continue round =
    if c.smoke then round - first < smoke_rounds
    else round = first || Probe.now () -. t0 < c.seconds
  in
  let round = ref first in
  while continue !round do
    f !round;
    incr round
  done;
  set c "rounds" (float_of_int (!round - first));
  !round - first

(* ------------------------------------------------------------------ *)
(* End-to-end samples                                                   *)

(* Per-round samples; each end-to-end metric is a median over them, so
   a short stall of the machine moves no metric but the p90. *)
type samples = {
  mutable setup : float list;
  mutable wall : float list;  (** a round's work, set-up excluded *)
  mutable generate : float list;
  mutable warm : float list;  (** grids resubmitted once every result exists *)
  mutable latency : float list;  (** grids submitted for the first time *)
  mutable cell_rates : float list;  (** cells computed per second, per grid *)
  mutable instance_rates : float list;
  mutable rss : float option;
}

let samples () =
  {
    setup = [];
    wall = [];
    generate = [];
    warm = [];
    latency = [];
    cell_rates = [];
    instance_rates = [];
    rss = None;
  }

(* A grid submitted for the first time took [seconds] to its last
   result. *)
let grid_latency s ~rss seconds =
  s.latency <- seconds :: s.latency;
  if s.rss = None && List.length s.latency >= rss_samples then s.rss <- Some (rss ())

(* A cold phase computed [cells] cells and [instances] simulated
   instances in [seconds]. *)
let throughput s ~seconds ~cells ~instances =
  s.cell_rates <- (float_of_int cells /. seconds) :: s.cell_rates;
  s.instance_rates <- (float_of_int instances /. seconds) :: s.instance_rates

(* The end-to-end metrics. Latency percentiles follow [Stats.tail]: a
   run with too few grids for p90 reports the highest percentile its
   samples support, and records which one it is. *)
let report c s ~rss =
  let ms = List.map (fun x -> 1000. *. x) s.latency in
  let p50, _ = Stats.tail ~p:0.5 ms and p90, p90_at = Stats.tail ~p:0.9 ms in
  List.iter
    (fun (name, v) -> set c name v)
    [
      ("setup_s", Stats.median s.setup);
      ("wall_s", Stats.median s.wall);
      ("generate_s", Stats.median s.generate);
      ("warm_rerun_s", Stats.median s.warm);
      ("cells_per_s", Stats.median s.cell_rates);
      ("instances_per_s", Stats.median s.instance_rates);
      ("grid_latency_p50_ms", p50);
      ("grid_latency_p90_ms", p90);
      ("peak_rss_mb", match s.rss with Some v -> v | None -> rss ());
      ("latency.samples", float_of_int (List.length ms));
      ("latency.tail_percentile", p90_at);
    ]

(* ------------------------------------------------------------------ *)
(* Traced runs                                                          *)

(* What a traced run accumulates besides its spans. *)
type layers = {
  mutable images : int * int;  (** kernel images built and reused by the measured rounds *)
  mutable replay_images : int;  (** images the traced replays built *)
  mutable replay_instances : int;
  mutable untraced_replay : float;  (** the same replays with the recorder off *)
  mutable compile : float list;  (** sampled seconds per [Kernel.compile] *)
  mutable hits : int;  (** store finds that hit, in the traced replays *)
  mutable finds : int;
}

let layers () =
  {
    images = (0, 0);
    replay_images = 0;
    replay_instances = 0;
    untraced_replay = 0.;
    compile = [];
    hits = 0;
    finds = 0;
  }

(* Run [f] and charge the kernel-image and engine counters it moved to
   the run's totals. *)
let counted c l f =
  let module Kernel = Mcm_gpu.Kernel in
  let module Runner = Mcm_testenv.Runner in
  let built0 = Kernel.images_built () and hits0 = Kernel.image_hits () in
  let eng0 = Runner.engine_stats () in
  let r = f () in
  let eng = Runner.engine_stats_sub (Runner.engine_stats ()) eng0 in
  let built, hits = l.images in
  l.images <-
    (built + Kernel.images_built () - built0, hits + Kernel.image_hits () - hits0);
  add c "runner.schema_reuses" (float_of_int eng.Runner.schema_reuses);
  add c "runner.workspace_reuses" (float_of_int eng.Runner.workspace_reuses);
  r

(* Mean time of [Kernel.compile] per distinct test: the compile cost is
   not visible from outside [Runner.exec], so it is sampled directly and
   scaled by how many images a run built. *)
let compile_cost tests =
  let weak = Mcm_gpu.Instance.effective_params Mcm_gpu.Profile.nvidia ~amplification:1. in
  let distinct = Hashtbl.create 64 in
  List.iter (fun t -> Hashtbl.replace distinct t.Mcm_litmus.Litmus.name t) tests;
  let n = Hashtbl.length distinct in
  if n = 0 then 0.
  else
    let (), s =
      Probe.time (fun () ->
          Hashtbl.iter
            (fun _ test -> ignore (Mcm_gpu.Kernel.compile ~weak ~bugs:Mcm_gpu.Bug.none ~test ()))
            distinct)
    in
    s /. float_of_int n

(* A replay run twice over fresh inputs: once with the recorder off, for
   the overhead baseline, and once traced, the two in alternating order
   so that warming up favours neither. [replay sp] returns its seconds,
   its simulated instances and the tests it ran. *)
let replay_twice c l replay =
  let untraced () =
    let seconds, _, _ = replay (Span.create ~enabled:false) in
    l.untraced_replay <- l.untraced_replay +. seconds
  in
  let traced () =
    let built0 = Mcm_gpu.Kernel.images_built () in
    let _, instances, tests = replay c.spans in
    l.replay_images <- l.replay_images + Mcm_gpu.Kernel.images_built () - built0;
    l.replay_instances <- l.replay_instances + instances;
    l.compile <- compile_cost tests :: l.compile
  in
  if List.length l.compile mod 2 = 0 then (untraced (); traced ()) else (traced (); untraced ())

(* Tests that went through the admission gate: admitted, rejected for
   deriving no target, dropped as duplicates, or failing certification. *)
let admission_attempts (s : Mcm_corpus.Admit.stats) =
  Mcm_corpus.Admit.(s.admitted + s.rejected + s.duplicates + s.uncertified)

(* The layer calls spans wrap, named as the per-layer metrics are
   (metric = span name ^ "_s"). *)
let layer_spans =
  [
    "key.request_key";
    "store.find";
    "store.add";
    "store.flush";
    "runner.exec";
    "runner.codec";
    "sched.plan";
    "litmus.parse";
    "oracle.recertify";
    "corpus.generate";
    "grid.run";
    "serve.submit";
  ]

(* Counters the workloads [add] up over all rounds. *)
let summed_counts =
  [
    "corpus.programs";
    "corpus.candidates";
    "corpus.admitted";
    "corpus.attempts";
    "oracle.disagreements";
    "runner.schema_reuses";
    "runner.workspace_reuses";
    "sched.hits";
    "sched.misses";
    "sched.decode_failures";
    "store.bytes";
  ]

(* Turn a traced run into per-layer metrics, each per round: self time
   per layer from the spans, counts, and ratios. Compile time sits
   inside runner.exec spans; it is estimated from the sampled compile
   cost and moved to kernel.compile_s. Writes the spans out. *)
let summarise c l ~rounds =
  let spans = Span.spans c.spans in
  let per_round x = x /. float_of_int (max 1 rounds) in
  let self = Span.self_by_name spans in
  let self_of name = Option.value ~default:0. (Hashtbl.find_opt self name) in
  let count name = float_of_int (List.length (List.filter (fun s -> s.Span.name = name) spans)) in
  let ratio a b = if b > 0. then a /. b else 0. in
  List.iter (fun name -> set c (name ^ "_s") (per_round (self_of name))) layer_spans;
  List.iter (fun name -> set c name (per_round (get c name))) summed_counts;
  let compile = Stats.median l.compile in
  let built, reused = l.images in
  let exec = Float.max 0. (self_of "runner.exec" -. (compile *. float_of_int l.replay_images)) in
  let traced = Span.total_duration spans "replay" in
  List.iter
    (fun (name, v) -> set c name v)
    [
      ("kernel.compile_s", per_round (compile *. float_of_int built));
      ("kernel.images_built", per_round (float_of_int built));
      ("kernel.image_reuse_ratio", ratio (float_of_int reused) (float_of_int (built + reused)));
      ("runner.exec_s", per_round exec);
      ("runner.instances_per_s", ratio (float_of_int l.replay_instances) exec);
      ("key.calls", per_round (count "key.request_key"));
      ("store.adds", per_round (count "store.add"));
      ("store.flushes", per_round (count "store.flush"));
      ("store.finds", per_round (float_of_int l.finds));
      ("store.hit_ratio", ratio (float_of_int l.hits) (float_of_int l.finds));
      ( "grid.parallel_efficiency",
        ratio (Span.total_duration spans "runner.exec")
          (self_of "grid.run" *. float_of_int c.domains) );
      ("corpus.admit_ratio", ratio (get c "corpus.admitted") (get c "corpus.attempts"));
      ("trace.unattributed_s", per_round (self_of "unattributed"));
      ("trace.spans", float_of_int (List.length spans));
      ( "trace.overhead_ratio",
        if l.untraced_replay > 0. then (traced /. l.untraced_replay) -. 1. else 0. );
    ];
  Span.write ~path:(path c "trace.jsonl") spans

(** The one multi-cell campaign driver.

    A ['a t] is a grid of campaign cells: [n] requests (index →
    {!Mcm_testenv.Request.t}) all executed under the same collector.
    {!run} dispatches it through the execution context —
    {!Mcm_campaign.Sched}'s hit/miss planner when the context carries a
    store (caching, resume journaling, shard-durable checkpoints), a bare
    chunked pool map otherwise — so every driver ([Tuning.sweep],
    [Experiments.Table4], [Mcm_oracle.Soundness.check]) inherits caching,
    resume, deterministic sharding and chunked dispatch uniformly instead
    of re-implementing its own fan-out.

    Cells always compute with {!Mcm_testenv.Request.serial}: the grid
    axis is the parallel unit and store/journal I/O stays in the calling
    domain, matching the {!Mcm_campaign.Store} single-domain contract.
    A context that borrows a pool runs the grid on it (no pool is
    spawned per call); the cells themselves never see it.
    Results land at their grid index, so [run] is bit-identical for every
    domain count and for warm versus cold stores. *)

type 'a t

val make :
  ?sweep:Mcm_campaign.Key.t ->
  ?family:(int -> int) ->
  'a Mcm_testenv.Runner.collect ->
  n:int ->
  request:(int -> Mcm_testenv.Request.t) ->
  'a t
(** [make collect ~n ~request] is the grid [[| request 0; …;
    request (n-1) |]] under [collect]. [request] must be pure — it is
    called more than once per index (keys, then compute). [sweep], the
    sweep's configuration key, enables resume journaling when the
    context also carries a journal; without it the journal is ignored.
    [family], the schema-family id of a cell (cells of one family share
    a compiled image and memoized campaign prefix), lets
    {!Mcm_campaign.Sched} group misses into columns before dispatch —
    purely a wall-clock optimisation, bit-identical either way. *)

val run : Mcm_testenv.Request.ctx -> 'a t -> 'a array

val run_stats : Mcm_testenv.Request.ctx -> 'a t -> 'a array * Mcm_campaign.Sched.stats option
(** Like {!run}, plus the planner's hit/miss stats ([None] when the
    context has no store — everything was computed). *)

val map : Mcm_testenv.Request.ctx -> n:int -> f:(int -> 'a) -> 'a array
(** The bare store-less dispatch underneath {!run}: [[| f 0; …;
    f (n-1) |]] over the context's domains with its chunking — for grid
    work that is not a campaign cell (e.g. oracle allowed-set
    computation). *)

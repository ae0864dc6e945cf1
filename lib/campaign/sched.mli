(** A cache-aware sweep planner.

    [Sched] sits between a sweep grid and the domain {!Mcm_util.Pool}:
    it partitions the grid's cells into store hits and misses, dispatches
    only the misses to the pool, persists their results, and merges
    cached and fresh results back into grid order. Store and journal I/O
    stay in the calling domain — worker domains only ever run [f] — so
    the single-domain store contract holds by construction.

    Misses are processed in shards (default {!default_shard} cells): each
    shard is mapped on the pool, appended to the store, {!Store.flush}ed,
    and then checkpointed in the journal. A crash therefore loses at most
    one shard of compute, and a resumed sweep finds every earlier shard
    already cached.

    Determinism: results land at their grid index and cached payloads
    decode to exactly what the original run stored, so a warm (or
    partially warm) run is bit-identical to a cold one. A cached payload
    that fails to [decode] (e.g. written by a newer codec) is treated as
    a miss and recomputed — but not re-stored, since its key is already
    present. *)

type stats = {
  total : int;  (** grid cells *)
  hits : int;  (** served from the store *)
  misses : int;  (** computed this run *)
  decode_failures : int;  (** cached payloads that failed to decode *)
}

val pp_stats : Format.formatter -> stats -> unit

val default_shard : int

val plan :
  Store.t -> key:(int -> Key.t) -> n:int -> [ `Hit of Mcm_util.Jsonw.t | `Miss ] array
(** The hit/miss partition of an [n]-cell grid, without running anything. *)

val run :
  ?domains:int ->
  ?pool:Mcm_util.Pool.t ->
  ?shard:int ->
  ?chunk:int ->
  ?journal:Journal.t * Key.t ->
  ?family:(int -> int) ->
  store:Store.t ->
  key:(int -> Key.t) ->
  encode:('b -> Mcm_util.Jsonw.t) ->
  decode:(Mcm_util.Jsonw.t -> ('b, string) result) ->
  f:(int -> 'b) ->
  n:int ->
  unit ->
  'b array * stats
(** [run ~store ~key ~encode ~decode ~f ~n ()] computes
    [[| f 0; …; f (n-1) |]] through the store. [pool] reuses an existing
    pool (it is not shut down); otherwise a fresh pool of [domains] is
    created for the call. [chunk] is forwarded to each shard's
    {!Mcm_util.Pool.map_array} dispatch. [journal], when given with the sweep's
    configuration key, is {!Journal.start}ed before work and
    {!Journal.finish}ed after, with a checkpoint after every durable
    shard. [f] must be pure up to its index — the whole point is not to
    call it twice.

    [family i], when given, is the schema-family id of cell [i] (cells
    of one family share a compiled kernel image and memoized campaign
    prefix — the fields {!Key.cell_fields} lists between the kind and
    the iteration count). Misses are
    stable-sorted by family before sharding, so whole columns run
    consecutively on a warm domain. Grouping is purely a dispatch-order
    optimisation: results still land at their grid indices and [stats]
    is unchanged, so the output is bit-identical with or without
    [family] — property-tested in [test/test_campaign.ml]. *)

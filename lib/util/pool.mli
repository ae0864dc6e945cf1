(** A fixed-size domain pool for deterministic data parallelism.

    OCaml 5 gives the reproduction real shared-nothing parallelism; this
    pool is the one concurrency primitive the codebase uses for it. It is
    deliberately minimal — a fixed set of worker domains pulling task
    indices off a mutex/condition-protected queue, no work stealing, no
    futures — because every parallel workload here is a finite grid of
    independent, pre-seeded tasks (campaign iterations, tuning grid
    points) whose results must be {e bit-identical} to the serial code.

    Determinism contract: {!map_array} stores task [i]'s result at index
    [i], and {!map_reduce} folds the results in index order, so the
    outcome never depends on domain count or scheduling. A pool of
    [domains:1] spawns no worker domains at all and degenerates to the
    serial loop.

    The submitting domain participates in the work, so a pool of [k]
    domains applies [k] domains of compute ([k - 1] workers plus the
    caller). Pools are not re-entrant: submit from one domain at a time,
    and do not submit from inside a task — either misuse raises
    [Invalid_argument] (see {!map_array}).

    Ownership. A pool is owned by whoever owns the queue of work it
    serves, and only the owner shuts it down. A CLI call or a grid that
    brings its own work uses {!with_pool} for exactly that call; the
    campaign daemon owns its queue of cells, so it keeps one pool alive
    while cells are queued and lends it to each cell through
    [Mcm_testenv.Request.ctx]. Borrowers never shut a pool down. Two
    costs of a live pool bound how long an owner should keep it:
    - a live pool forbids [Unix.fork]; on OCaml 5.1 fork fails in any
      process that has ever spawned a domain, even one since joined, so
      a process that forks (a test or bench starting a daemon) must do
      so before its first pool of more than one domain;
    - every minor collection is stop-the-world across all running
      domains, and idle workers (blocked on the queue) take part in each
      one, so a pool kept alive through an allocation-heavy serial phase
      (an I/O loop, say) slows that phase down. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains (clamped
    below by 0). [domains] defaults to {!Domain.recommended_domain_count}.
    Call {!shutdown} when done; an un-shut-down pool leaks its domains
    until exit. *)

val domains : t -> int
(** Total domains applied to each job, counting the caller (≥ 1). *)

val map_array : ?chunk:int -> t -> n:int -> f:(int -> 'a) -> 'a array
(** [map_array t ~n ~f] computes [[| f 0; …; f (n-1) |]], scheduling the
    indices across the pool's domains. If one or more tasks raise, every
    remaining task still runs, the pool stays usable, and the exception
    of the lowest-indexed failing task is re-raised in the caller.

    Raises [Invalid_argument] if the pool is already running a job: a
    task submitting to its own pool, or a second domain submitting
    concurrently. The running job is unaffected, so a nested submission
    surfaces as that task's exception, re-raised in the outer caller.

    Domains claim [chunk] consecutive indices per lock acquisition
    (clamped below by 1; default {!default_chunk}), so cheap tasks are
    not serialised on the queue mutex. Results land directly in the
    returned array — no per-task boxing. Chunking never affects the
    result, only lock traffic. *)

val map_reduce :
  ?chunk:int -> t -> n:int -> map:(int -> 'a) -> fold:('acc -> 'a -> 'acc) -> init:'acc -> 'acc
(** [map_reduce t ~n ~map ~fold ~init] is
    [fold (… (fold init (map 0)) …) (map (n-1))] — the maps run in
    parallel, the fold runs in the caller in index order, so the result
    equals the sequential fold even for non-commutative [fold].
    [chunk] as in {!map_array}. *)

val default_chunk : t -> n:int -> int
(** The chunk size an [n]-task job uses when [?chunk] is omitted:
    [max 1 (n / (4 * domains t))] — four claims per domain, balancing
    lock traffic against load-balance tail latency. Exposed so benches
    and CLIs can report the effective chunk alongside timings. *)

val chunk_for : domains:int -> n:int -> int
(** {!default_chunk} as a pure function of the domain count, for
    reporting the effective chunk without constructing a pool. *)

val shutdown : t -> unit
(** Terminate and join the worker domains. Idempotent. After shutdown
    the pool still accepts jobs but runs them in the caller alone. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] is [f] applied to a fresh pool, with a
    guaranteed {!shutdown} afterwards (also on exceptions). *)

val default_domains : unit -> int
(** {!Domain.recommended_domain_count}, clamped below by 1 — the pool's
    and the CLI's default parallelism. *)

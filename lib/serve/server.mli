(** The campaign daemon: a multi-client service over the store.

    [run config] opens the campaign store as its single writer, listens
    on a Unix-domain socket (and optionally a loopback TCP port), and
    serves the {!Proto} protocol to any number of concurrent clients:

    - {e warm hits} — cells whose key is already in the store — are
      answered instantly at submit time, without touching the queue;
    - {e misses} are deduplicated against identical cells already queued
      or running (across all clients: the second submitter joins the
      first's cell as a waiter and both receive the one result), then
      queued and executed one cell at a time, each campaign fanning its
      iterations over [jobs] worker domains. The daemon owns one pool of
      [jobs] domains whose lifetime is its queue: created when a cold
      cell is dispatched and none is alive, lent to every cell through
      [Mcm_testenv.Request.ctx], and shut down as soon as the queue is
      empty and on every exit path. No domain is spawned at start-up or
      kept alive while only warm hits are served;
    - {e fairness}: the next cell to run is picked from the eligible
      client with the highest queued priority, ties broken
      least-recently-served, FIFO within a client — one client's huge
      grid cannot starve another's small one;
    - every computed cell is appended to the store and fsynced before
      its results are delivered, so a SIGKILL loses at most the cell in
      flight and a restarted daemon serves everything already computed
      as warm hits;
    - results stream back incrementally as cells finish; [Watch]
      subscribers additionally receive [Progress] events.

    The event loop is single-threaded: socket I/O and cell execution
    interleave in one domain (the store handle never leaves it — the
    same single-domain discipline {!Mcm_campaign.Sched} enforces), with
    worker domains doing compute only. A client that disconnects takes
    its interest with it: its waiters are dropped, and a queued cell
    nobody waits for anymore is cancelled instead of executed.

    Admin lifecycle ({!Proto.client_msg}): [Report] and [Queue] inspect
    the service, [Drain] stops admissions while finishing queued work,
    [Shutdown] (or SIGTERM/SIGINT) flushes the store, farewells every
    client and returns from [run]. *)

type config = {
  store_dir : string;  (** campaign store directory (created if needed) *)
  socket_path : string;  (** Unix-domain socket path *)
  port : int option;  (** also listen on 127.0.0.1:port *)
  jobs : int;  (** worker domains per campaign, alive while cells are queued *)
  verbose : bool;  (** per-event logging on stderr *)
}

type summary = {
  served : int;  (** results delivered from the store (warm hits) *)
  computed : int;  (** cells executed by this daemon *)
  joined : int;  (** submissions deduplicated onto in-flight cells *)
  sessions : int;  (** client connections accepted *)
}

val max_histogram_work : int
(** [65_536]: the most candidate executions, and the most thread
    orders, the test of a [histogram] cell may have. A histogram
    classifies every one of each ({!Mcm_litmus.Classify.work}), both
    factorial in the test's size, in the daemon's loop; the limit is
    about 100× the largest repository test and admits at most 8
    threads. Fixed, not configurable. [run] and [outcomes] cells never
    enumerate and are not limited. *)

val histogram_admissible : Mcm_litmus.Litmus.t -> (unit, string) result
(** [Ok ()] when [Classify.work t <= max_histogram_work]; otherwise the
    error the daemon answers the submission with, naming ["litmus"]
    and the count. *)

val run : ?on_ready:(unit -> unit) -> config -> summary
(** Serve until [Shutdown]/SIGTERM/SIGINT. [on_ready] fires once the
    sockets are bound and listening (before the first accept). Raises
    [Failure] if the socket path is in use by a live daemon or the store
    writer lock is held. *)

(* A job is a batch of [n] independent tasks identified by index. [run]
   must never raise: map_array wraps the user function so failures are
   recorded in a side-channel instead of unwinding a worker. Indices are
   claimed [chunk] at a time so the mutex is taken O(n / chunk) times
   per job rather than O(n). *)
type job = {
  run : int -> unit;
  n : int;
  chunk : int;  (* indices claimed per lock acquisition, >= 1 *)
  mutable next : int;  (* first unclaimed index *)
  mutable completed : int;  (* tasks whose [run] has returned *)
}

type t = {
  lock : Mutex.t;
  work : Condition.t;  (* a job arrived, or shutdown was requested *)
  idle : Condition.t;  (* the current job completed *)
  mutable job : job option;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
  size : int;
}

let default_domains () = max 1 (Domain.recommended_domain_count ())

let domains t = t.size

(* Four chunks per domain balances lock traffic against tail latency:
   the last domain to finish holds at most ~1/4 of its share while the
   others idle, and a job takes only [4 * domains] lock acquisitions. *)
let chunk_for ~domains ~n = max 1 (n / (4 * max 1 domains))
let default_chunk t ~n = chunk_for ~domains:t.size ~n

(* Claim the next chunk [lo, hi) of [j]; the caller must hold [t.lock]. *)
let claim j =
  let lo = j.next in
  let hi = min j.n (lo + j.chunk) in
  j.next <- hi;
  (lo, hi)

let worker t =
  let running = ref true in
  while !running do
    Mutex.lock t.lock;
    while
      (not t.stop)
      && (match t.job with None -> true | Some j -> j.next >= j.n)
    do
      Condition.wait t.work t.lock
    done;
    if t.stop then begin
      Mutex.unlock t.lock;
      running := false
    end
    else begin
      let j = match t.job with Some j -> j | None -> assert false in
      let lo, hi = claim j in
      Mutex.unlock t.lock;
      for i = lo to hi - 1 do
        j.run i
      done;
      Mutex.lock t.lock;
      j.completed <- j.completed + (hi - lo);
      if j.completed = j.n then Condition.broadcast t.idle;
      Mutex.unlock t.lock
    end
  done

let create ?domains () =
  let size =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  let t =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      job = None;
      stop = false;
      workers = [||];
      size;
    }
  in
  t.workers <- Array.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

(* Publish [job], help drain it from the submitting domain, and wait for
   the stragglers the workers still hold. *)
let run_job t job =
  Mutex.lock t.lock;
  if Option.is_some t.job then begin
    Mutex.unlock t.lock;
    invalid_arg
      "Pool: submission while the pool is running a job (nested, from inside one of its \
       tasks, or concurrent, from another domain)"
  end;
  t.job <- Some job;
  Condition.broadcast t.work;
  while job.next < job.n do
    let lo, hi = claim job in
    Mutex.unlock t.lock;
    for i = lo to hi - 1 do
      job.run i
    done;
    Mutex.lock t.lock;
    job.completed <- job.completed + (hi - lo)
  done;
  while job.completed < job.n do
    Condition.wait t.idle t.lock
  done;
  t.job <- None;
  Mutex.unlock t.lock

let map_array ?chunk t ~n ~f =
  if n < 0 then invalid_arg "Pool.map_array: negative task count";
  if n = 0 then [||]
  else begin
    let chunk = match chunk with Some c -> max 1 c | None -> default_chunk t ~n in
    (* Results go straight into an ['a array] — no [Some (Ok v)] box per
       task. The array can't be preallocated without a dummy ['a], so
       the first task to complete installs [Array.make n v] with its own
       value as filler (empty arrays are a shared atom, so the CAS on
       [[||]] is race-free); every slot is then overwritten by exactly
       one task and read only after the job's completion barrier.
       Failures race into [err], keeping the lowest-indexed one. *)
    let results : 'a array Atomic.t = Atomic.make [||] in
    let err : (int * exn) option Atomic.t = Atomic.make None in
    let run i =
      match f i with
      | v ->
          let arr = Atomic.get results in
          let arr =
            if arr != [||] then arr
            else
              let fresh = Array.make n v in
              if Atomic.compare_and_set results [||] fresh then fresh
              else Atomic.get results
          in
          arr.(i) <- v
      | exception e ->
          let rec note () =
            let cur = Atomic.get err in
            match cur with
            | Some (j, _) when j <= i -> ()
            | _ -> if not (Atomic.compare_and_set err cur (Some (i, e))) then note ()
          in
          note ()
    in
    run_job t { run; n; chunk; next = 0; completed = 0 };
    match Atomic.get err with
    | Some (_, e) -> raise e
    | None ->
        (* No failure and [n > 0], so some task installed the array. *)
        Atomic.get results
  end

let map_reduce ?chunk t ~n ~map ~fold ~init =
  Array.fold_left fold init (map_array ?chunk t ~n ~f:map)

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

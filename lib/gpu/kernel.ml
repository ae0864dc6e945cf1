module Prng = Mcm_util.Prng
module Litmus = Mcm_litmus.Litmus
module Instr = Mcm_litmus.Instr
module Scope = Mcm_memmodel.Scope

(* Bump when the kernel's compiled form or execution semantics change in
   a way that should re-key stored campaign results. v1 was the original
   compiled kernel (PR 3, implicit); v2 introduced schema images and
   cross-cell memoization; v3 added the scope lane and scope-aware fence
   semantics. The store's cell keys record this number. *)
let code_version = 3

(* Event kinds as immediates; the order matches Instance.kind. *)
let k_load = 0
let k_store = 1
let k_rmw = 2
let k_fence = 3

(* Scope lane immediates. *)
let s_wg = 0
let s_dev = 1

type t = {
  test : Litmus.t;
  weak : Instance.weak_params;
  bugs : Bug.effect;
  layout : Scope.layout;  (* scalar like [weak]/[bugs]: rebound per cell *)
  image_id : int;  (* identifies the shared structural arrays below *)
  nthreads : int;
  nlocs : int;
  n : int;  (* total events *)
  ev_kind : int array;
  ev_loc : int array;  (* -1 for fences *)
  ev_value : int array;  (* written value, 0 otherwise *)
  ev_reg : int array;  (* destination register, -1 otherwise *)
  ev_po : int array;  (* index within the issuing thread *)
  ev_thread : int array;
  ev_scope : int array;  (* s_dev / s_wg, from the instruction's scope *)
  thread_off : int array;  (* length nthreads + 1; events are grouped by thread *)
  loc_writes : int array array;  (* per location, write event indices in event order *)
  (* Static facts that let [exec_core] skip a pass that cannot change
     anything: without a fence the release-fence pass caps nothing, and
     unless some thread writes one location twice the same-thread
     coherence pass never finds an earlier write to order after. *)
  has_fence : bool;
  rewrites_loc : bool;
  (* The outcome code: every write's digit is 1 + its index in its
     location's [loc_writes] (0 is the initial value), and every
     register-writing read and every final value owns one mixed-radix
     weight, so [exec_core] sums digit x weight into a number in
     [0, codes) that fixes the whole outcome record. [codes] = 0, and
     the code goes unread, when the space exceeds [code_cap] or a
     register is written twice. *)
  ev_digit : int array;
  ev_weight : int array;  (* 0 for events that write no register *)
  loc_weight : int array;
  codes : int;
}

type workspace = {
  mutable owner : t;
  (* Per-event mutable state (the interpreter's record fields). *)
  time : float array;
  vis : float array;
  active : bool array;
  post_acquire : bool array;
  co_pos : int array;
  (* Per-thread sequences of memory events + active fences, stored in the
     thread's slice of [seq]; [seq_len.(tid)] entries from
     [thread_off.(tid)]. *)
  seq : int array;
  seq_len : int array;
  (* Per-location coherence orders: sorted copies of [loc_writes]. *)
  co : int array array;
  floors : int array;  (* nthreads * nlocs, row-major *)
  last_vis : float array;  (* nlocs scratch for the coherence pass *)
  order : int array;
  outcome : Litmus.outcome;
  mutable code : int;  (* [outcome]'s code *)
  (* Per code, the test's verdict on its outcome: '\000' not yet
     evaluated, '\001' false, '\002' true. Empty when the image is
     uncoded. A workspace serves one image, and an image one test. *)
  verdicts : Bytes.t;
  parent : Prng.Raw.state;  (* the iteration stream instances split from *)
  rng : Prng.Raw.state;  (* the current instance's stream *)
}

let test k = k.test
let image_id k = k.image_id
let code_space k = if k.codes = 0 then None else Some k.codes

(* Compile / reuse counters, shared across domains. *)
let images_built_c = Atomic.make 0
let image_hits_c = Atomic.make 0
let images_built () = Atomic.get images_built_c
let image_hits () = Atomic.get image_hits_c

let next_image_id = Atomic.make 0

let code_cap = 1 lsl 16

(* Digits, weights and the size of the code space of an image (see the
   fields of [t]). Register-writing reads take their slots in event
   order, then the final values in location order. *)
let outcome_code ~n ~ev_loc ~ev_reg ~ev_thread ~loc_writes =
  let nlocs = Array.length loc_writes in
  let ev_digit = Array.make n 0 in
  for l = 0 to nlocs - 1 do
    let writes = loc_writes.(l) in
    for j = 0 to Array.length writes - 1 do
      ev_digit.(writes.(j)) <- j + 1
    done
  done;
  let ev_weight = Array.make n 0 and loc_weight = Array.make nlocs 0 in
  let space = ref 1 and regs_unique = ref true in
  for e = 0 to n - 1 do
    if ev_reg.(e) >= 0 then begin
      ev_weight.(e) <- !space;
      space := Mcm_util.Numbers.mul_sat !space (Array.length loc_writes.(ev_loc.(e)) + 1);
      for d = 0 to e - 1 do
        if ev_reg.(d) = ev_reg.(e) && ev_thread.(d) = ev_thread.(e) then regs_unique := false
      done
    end
  done;
  for l = 0 to nlocs - 1 do
    loc_weight.(l) <- !space;
    space := Mcm_util.Numbers.mul_sat !space (Array.length loc_writes.(l) + 1)
  done;
  let codes = if !regs_unique && !space <= code_cap then !space else 0 in
  (ev_digit, ev_weight, loc_weight, codes)

let compile ?(layout = Scope.default_layout) ~weak ~bugs ~(test : Litmus.t) () =
  let nthreads = Litmus.nthreads test in
  let n = Array.fold_left (fun acc l -> acc + List.length l) 0 test.Litmus.threads in
  let ev_kind = Array.make n 0 in
  let ev_loc = Array.make n (-1) in
  let ev_value = Array.make n 0 in
  let ev_reg = Array.make n (-1) in
  let ev_po = Array.make n 0 in
  let ev_thread = Array.make n 0 in
  let ev_scope = Array.make n s_dev in
  let thread_off = Array.make (nthreads + 1) 0 in
  let i = ref 0 in
  Array.iteri
    (fun tid instrs ->
      thread_off.(tid) <- !i;
      List.iteri
        (fun po instr ->
          let kind, loc, value, reg =
            match instr with
            | Instr.Load { reg; loc; _ } -> (k_load, loc, 0, reg)
            | Instr.Store { loc; value; _ } -> (k_store, loc, value, -1)
            | Instr.Rmw { reg; loc; value; _ } -> (k_rmw, loc, value, reg)
            | Instr.Fence _ -> (k_fence, -1, 0, -1)
          in
          ev_kind.(!i) <- kind;
          ev_loc.(!i) <- loc;
          ev_value.(!i) <- value;
          ev_reg.(!i) <- reg;
          ev_po.(!i) <- po;
          ev_thread.(!i) <- tid;
          ev_scope.(!i) <- (match Instr.scope instr with Scope.Device -> s_dev | Scope.Workgroup -> s_wg);
          incr i)
        instrs)
    test.Litmus.threads;
  thread_off.(nthreads) <- n;
  let loc_writes =
    Array.init test.Litmus.nlocs (fun l ->
        let acc = ref [] in
        for e = n - 1 downto 0 do
          if (ev_kind.(e) = k_store || ev_kind.(e) = k_rmw) && ev_loc.(e) = l then acc := e :: !acc
        done;
        Array.of_list !acc)
  in
  (* Events are grouped by thread, so a write finds its own thread as
     its location's last writer exactly when that thread wrote there
     before. *)
  let has_fence = ref false and rewrites_loc = ref false in
  let last_writer = Array.make test.Litmus.nlocs (-1) in
  for e = 0 to n - 1 do
    if ev_kind.(e) = k_fence then has_fence := true
    else if ev_kind.(e) = k_store || ev_kind.(e) = k_rmw then begin
      let l = ev_loc.(e) in
      if last_writer.(l) = ev_thread.(e) then rewrites_loc := true;
      last_writer.(l) <- ev_thread.(e)
    end
  done;
  let ev_digit, ev_weight, loc_weight, codes =
    outcome_code ~n ~ev_loc ~ev_reg ~ev_thread ~loc_writes
  in
  Atomic.incr images_built_c;
  {
    test;
    weak;
    bugs;
    layout;
    image_id = Atomic.fetch_and_add next_image_id 1;
    nthreads;
    nlocs = test.Litmus.nlocs;
    n;
    ev_kind;
    ev_loc;
    ev_value;
    ev_reg;
    ev_po;
    ev_thread;
    ev_scope;
    thread_off;
    loc_writes;
    has_fence = !has_fence;
    rewrites_loc = !rewrites_loc;
    ev_digit;
    ev_weight;
    loc_weight;
    codes;
  }

(* ------------------------------------------------------------------ *)
(* Per-domain image cache: the structural arrays of a compiled kernel
   depend only on the test program, not on [weak]/[bugs], so cells that
   differ only in environment, mutation flags or injected bugs can share
   one image and rebind the scalar fields per cell. Keyed by test name
   with a physical-equality check on the test itself (two distinct
   programs that happen to share a name both compile). Domain-local, so
   no locks; bounded, reset wholesale when full. *)

let image_cache_max = 256

let image_cache_key : (string, Litmus.t * t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let compile_cached ?(layout = Scope.default_layout) ~weak ~bugs ~(test : Litmus.t) () =
  let cache = Domain.DLS.get image_cache_key in
  match Hashtbl.find_opt cache test.Litmus.name with
  | Some (t0, proto) when t0 == test ->
      Atomic.incr image_hits_c;
      { proto with weak; bugs; layout }
  | _ ->
      if Hashtbl.length cache >= image_cache_max then Hashtbl.reset cache;
      let k = compile ~layout ~weak ~bugs ~test () in
      Hashtbl.replace cache test.Litmus.name (test, k);
      k

let workspace k =
  {
    owner = k;
    time = Array.make (max 1 k.n) 0.;
    vis = Array.make (max 1 k.n) 0.;
    active = Array.make (max 1 k.n) true;
    post_acquire = Array.make (max 1 k.n) false;
    co_pos = Array.make (max 1 k.n) (-1);
    seq = Array.make (max 1 k.n) 0;
    seq_len = Array.make k.nthreads 0;
    co = Array.map Array.copy k.loc_writes;
    floors = Array.make (max 1 (k.nthreads * k.nlocs)) (-1);
    last_vis = Array.make (max 1 k.nlocs) neg_infinity;
    order = Array.init (max 1 k.n) (fun i -> i);
    outcome = Litmus.empty_outcome k.test;
    code = 0;
    verdicts = Bytes.make k.codes '\000';
    parent = Prng.Raw.make ();
    rng = Prng.Raw.make ();
  }

let adopt ws k =
  if ws.owner.image_id <> k.image_id then
    invalid_arg "Kernel.adopt: workspace compiled from another image";
  ws.owner <- k

let set_parent ws prng = Prng.Raw.load ws.parent prng

let snapshot ws =
  {
    Litmus.regs = Array.map Array.copy ws.outcome.Litmus.regs;
    final = Array.copy ws.outcome.Litmus.final;
  }

(* One instance, drawing from [ws.rng]. Mirrors Instance.run phase by
   phase; every conditional draw (bernoulli with p outside (0,1),
   exponential with mean <= 0) is reproduced exactly so the two engines
   consume identical PRNG streams. The steady-state path allocates
   nothing: all scratch lives in the workspace, the sorts are in-place
   insertion sorts over total orders, and draws go through Prng.Raw.

   Every scratch array is written before it is read within a run
   ([active] only consulted for fences written this pass, [co_pos] set
   by the coherence sort before the reads pass, [floors] and [last_vis]
   filled to exactly nthreads*nlocs / nlocs, [order] and [seq] rebuilt),
   so what an earlier instance, or an earlier cell that the workspace
   was adopted from, left behind never influences a draw or an outcome.
   Thread [tid] starts at [starts.(off + tid)], so a runner can hand
   over one slice of a flat per-iteration buffer. Returns the outcome's
   code: each read and each final value adds its digit x weight as it
   resolves. *)
let exec_core k ws ~starts ~off =
  let time = ws.time
  and vis = ws.vis
  and active = ws.active
  and post_acquire = ws.post_acquire
  and co_pos = ws.co_pos
  and seq = ws.seq
  and seq_len = ws.seq_len
  and co = ws.co
  and floors = ws.floors
  and last_vis = ws.last_vis
  and order = ws.order
  and outcome = ws.outcome
  and rng = ws.rng in
  let weak = k.weak and bugs = k.bugs in
  let n = k.n in
  let nthreads = k.nthreads and nlocs = k.nlocs in
  let ev_kind = k.ev_kind
  and ev_loc = k.ev_loc
  and ev_value = k.ev_value
  and ev_reg = k.ev_reg
  and ev_po = k.ev_po
  and ev_thread = k.ev_thread
  and thread_off = k.thread_off
  and ev_digit = k.ev_digit
  and ev_weight = k.ev_weight in
  let coherent = not (Prng.Raw.bernoulli rng bugs.Bug.p_coherence_alias) in
  (* Flatten: per-thread issue clocks; dropped fences become inactive, as
     do fences whose (possibly Scope_dropped-demoted) scope does not
     reach the other threads under this layout. Draw order mirrors
     Instance.run exactly: fence-drop first, then — only for
     device-scope fences — the demotion draw (skipped entirely when
     p_scope_drop = 0, preserving pre-scope streams). *)
  for tid = 0 to nthreads - 1 do
    let clock = ref starts.(off + tid) in
    for i = thread_off.(tid) to thread_off.(tid + 1) - 1 do
      time.(i) <- !clock;
      post_acquire.(i) <- false;
      if ev_kind.(i) = k_fence then begin
        let dropped = Prng.Raw.bernoulli rng bugs.Bug.p_fence_drop in
        let dev =
          k.ev_scope.(i) = s_dev && not (Prng.Raw.bernoulli rng bugs.Bug.p_scope_drop)
        in
        active.(i) <- (not dropped) && (dev || k.layout = Scope.Intra)
      end;
      clock :=
        !clock
        +. (weak.Instance.instr_latency_ns
           *. (1. +. (weak.Instance.issue_jitter *. Prng.Raw.float rng 1.)))
    done
  done;
  (* Per-thread sequences, out-of-order window, acquire marking. *)
  for tid = 0 to nthreads - 1 do
    let off = thread_off.(tid) in
    let len = ref 0 in
    for i = off to thread_off.(tid + 1) - 1 do
      if ev_kind.(i) <> k_fence || active.(i) then begin
        seq.(off + !len) <- i;
        incr len
      end
    done;
    seq_len.(tid) <- !len;
    (* Adjacent memory pairs may swap issue times; swaps are disjoint. *)
    let j = ref 0 in
    while !j + 1 < !len do
      let e1 = seq.(off + !j) and e2 = seq.(off + !j + 1) in
      let swapped =
        ev_kind.(e1) <> k_fence
        && ev_kind.(e2) <> k_fence
        &&
        let swap_p =
          if ev_loc.(e1) <> ev_loc.(e2) then weak.Instance.p_ooo
          else if ev_kind.(e1) = k_load && ev_kind.(e2) = k_load then bugs.Bug.p_corr_reorder
          else 0.
        in
        if Prng.Raw.bernoulli rng swap_p then begin
          let t = time.(e1) in
          time.(e1) <- time.(e2);
          time.(e2) <- t;
          true
        end
        else false
      in
      if swapped then j := !j + 2 else incr j
    done;
    (* Loads after an active fence read fresh memory. *)
    let seen_fence = ref false in
    for s = 0 to !len - 1 do
      let e = seq.(off + s) in
      if ev_kind.(e) = k_fence && active.(e) then seen_fence := true
      else if !seen_fence then post_acquire.(e) <- true
    done
  done;
  (* Store visibility: exponential propagation; RMWs publish instantly. *)
  for i = 0 to n - 1 do
    if ev_kind.(i) = k_store then
      vis.(i) <- time.(i) +. Prng.Raw.exponential rng weak.Instance.vis_delay_mean_ns
    else if ev_kind.(i) = k_rmw then vis.(i) <- time.(i)
  done;
  (* Release fences cap earlier stores' visibility at the fence time. *)
  if k.has_fence then
    for tid = 0 to nthreads - 1 do
      let off = thread_off.(tid) in
      let len = seq_len.(tid) in
      for a = 0 to len - 1 do
        let f = seq.(off + a) in
        if ev_kind.(f) = k_fence && active.(f) then
          for b = 0 to len - 1 do
            let e = seq.(off + b) in
            if (ev_kind.(e) = k_store || ev_kind.(e) = k_rmw) && ev_po.(e) < ev_po.(f) then
              if time.(f) < vis.(e) then vis.(e) <- time.(f)
          done
      done
    done;
  (* Coherent same-thread same-location stores publish in order. *)
  if coherent && k.rewrites_loc then
    for tid = 0 to nthreads - 1 do
      let off = thread_off.(tid) in
      let len = seq_len.(tid) in
      for l = 0 to nlocs - 1 do
        last_vis.(l) <- neg_infinity
      done;
      for s = 0 to len - 1 do
        let e = seq.(off + s) in
        if ev_kind.(e) = k_store || ev_kind.(e) = k_rmw then begin
          let l = ev_loc.(e) in
          if vis.(e) <= last_vis.(l) then vis.(e) <- last_vis.(l) +. 1e-6;
          last_vis.(l) <- vis.(e)
        end
      done
    done;
  (* Coherence order per location = visibility order of its writes. The
     key (vis, time, event index) is the interpreter's
     (vis, time, thread, po) — a total order, so this insertion sort
     yields the same permutation as any other comparison sort. *)
  for l = 0 to nlocs - 1 do
    let dst = co.(l) in
    let src = k.loc_writes.(l) in
    let m = Array.length dst in
    for i = 0 to m - 1 do
      dst.(i) <- src.(i)
    done;
    for i = 1 to m - 1 do
      let x = dst.(i) in
      let xv = vis.(x) and xt = time.(x) in
      let j = ref (i - 1) in
      let continue = ref true in
      while !continue && !j >= 0 do
        let y = dst.(!j) in
        let after =
          vis.(y) > xv || (vis.(y) = xv && (time.(y) > xt || (time.(y) = xt && y > x)))
        in
        if after then begin
          dst.(!j + 1) <- y;
          decr j
        end
        else continue := false
      done;
      dst.(!j + 1) <- x
    done;
    for i = 0 to m - 1 do
      co_pos.(dst.(i)) <- i
    done
  done;
  (* Global execution order: (issue time, event index) — total order. *)
  for i = 0 to n - 1 do
    order.(i) <- i
  done;
  for i = 1 to n - 1 do
    let x = order.(i) in
    let xt = time.(x) in
    let j = ref (i - 1) in
    let continue = ref true in
    while !continue && !j >= 0 do
      let y = order.(!j) in
      if time.(y) > xt || (time.(y) = xt && y > x) then begin
        order.(!j + 1) <- y;
        decr j
      end
      else continue := false
    done;
    order.(!j + 1) <- x
  done;
  (* Reads, in execution order, with per-thread coherence floors. *)
  for c = 0 to (nthreads * nlocs) - 1 do
    floors.(c) <- -1
  done;
  let out = outcome in
  for t = 0 to nthreads - 1 do
    let regs = out.Litmus.regs.(t) in
    for r = 0 to Array.length regs - 1 do
      regs.(r) <- 0
    done
  done;
  let final = out.Litmus.final in
  for l = 0 to nlocs - 1 do
    final.(l) <- 0
  done;
  let code = ref 0 in
  for oi = 0 to n - 1 do
    let i = order.(oi) in
    let kind = ev_kind.(i) in
    if kind = k_store then begin
      if coherent then begin
        let fi = (ev_thread.(i) * nlocs) + ev_loc.(i) in
        if co_pos.(i) > floors.(fi) then floors.(fi) <- co_pos.(i)
      end
    end
    else if kind = k_load || kind = k_rmw then begin
      let eff =
        if kind = k_rmw || post_acquire.(i) then time.(i)
        else if Prng.Raw.bernoulli rng weak.Instance.p_stale then begin
          let d = time.(i) -. Prng.Raw.exponential rng weak.Instance.stale_mean_ns in
          if d > 0. then d else 0.
        end
        else time.(i)
      in
      let self_pos = if kind = k_rmw then co_pos.(i) else -2 in
      let loc = ev_loc.(i) in
      let writes = co.(loc) in
      (* Reverse early-exit scan for the last visible write. *)
      let pos = ref (-1) in
      let w = ref (Array.length writes - 1) in
      while !pos < 0 && !w >= 0 do
        if !w <> self_pos && vis.(writes.(!w)) <= eff then pos := !w;
        decr w
      done;
      let fi = (ev_thread.(i) * nlocs) + loc in
      let pos = if coherent && floors.(fi) > !pos then floors.(fi) else !pos in
      let value =
        if pos < 0 then 0
        else begin
          let w = writes.(pos) in
          code := !code + (ev_digit.(w) * ev_weight.(i));
          ev_value.(w)
        end
      in
      if ev_reg.(i) >= 0 then out.Litmus.regs.(ev_thread.(i)).(ev_reg.(i)) <- value;
      if coherent then begin
        if pos > floors.(fi) then floors.(fi) <- pos;
        if kind = k_rmw && co_pos.(i) > floors.(fi) then floors.(fi) <- co_pos.(i)
      end
    end
  done;
  for l = 0 to nlocs - 1 do
    let writes = co.(l) in
    let m = Array.length writes in
    if m > 0 then begin
      let w = writes.(m - 1) in
      out.Litmus.final.(l) <- ev_value.(w);
      code := !code + (ev_digit.(w) * k.loc_weight.(l))
    end
  done;
  !code

let run_core k ws ~starts ~off =
  if ws.owner != k then invalid_arg "Kernel.run: workspace belongs to another kernel";
  ws.code <- exec_core k ws ~starts ~off;
  ws.outcome

let run_next k ws ~starts ~off =
  if off < 0 || off + k.nthreads > Array.length starts then
    invalid_arg "Kernel.run_next: starts slice out of bounds";
  Prng.Raw.split_into ~child:ws.rng ~parent:ws.parent;
  run_core k ws ~starts ~off

let run k ws ~prng ~starts =
  if Array.length starts <> k.nthreads then invalid_arg "Kernel.run: starts length mismatch";
  Prng.Raw.load ws.rng prng;
  let out = run_core k ws ~starts ~off:0 in
  Prng.Raw.store ws.rng prng;
  out

(* The table is filled on a code's first appearance from the record the
   kernel just wrote; an uncoded image asks the closure every time. *)
let target_holds ws =
  let target = ws.owner.test.Litmus.target in
  if Bytes.length ws.verdicts = 0 then target ws.outcome
  else
    match Bytes.get ws.verdicts ws.code with
    | '\001' -> false
    | '\002' -> true
    | _ ->
        let v = target ws.outcome in
        Bytes.set ws.verdicts ws.code (if v then '\002' else '\001');
        v

module Pool = Mcm_util.Pool
module Request = Mcm_testenv.Request
module Runner = Mcm_testenv.Runner
module Sched = Mcm_campaign.Sched

type 'a t = {
  collect : 'a Runner.collect;
  n : int;
  request : int -> Request.t;
  sweep : Mcm_campaign.Key.t option;
  family : (int -> int) option;
}

let make ?sweep ?family collect ~n ~request = { collect; n; request; sweep; family }

(* Bare parallel map through the context — the store-less grid dispatch
   every driver used to hand-roll. *)
let map (c : Request.ctx) ~n ~f =
  if n = 0 then [||]
  else if c.Request.domains <= 1 then Array.init n f
  else
    let on pool = Pool.map_array ~chunk:(Request.chunk_for c ~n) pool ~n ~f in
    match c.Request.pool with
    | Some pool -> on pool
    | None -> Pool.with_pool ~domains:c.Request.domains on

let run_stats (c : Request.ctx) g =
  (* Cells compute serially — the grid axis is the parallel unit, and
     store/journal I/O stays confined to this (the calling) domain. The
     context's plan rides along: it only selects the compile/memoization
     strategy inside the worker domain. The cell context carries no
     pool: a cell running on the grid's pool must not submit to it. *)
  let cell_ctx = { Request.serial with Request.plan = c.Request.plan } in
  let cell i = Runner.exec g.collect (g.request i) cell_ctx in
  match c.Request.store with
  | None -> (map c ~n:g.n ~f:cell, None)
  | Some store ->
      let key i = Request.key ~kind:(Runner.kind g.collect) (g.request i) in
      let journal =
        match (c.Request.journal, g.sweep) with
        | Some j, Some sweep -> Some (j, sweep)
        | _ -> None
      in
      let arr, stats =
        Sched.run ~domains:c.Request.domains ?pool:c.Request.pool ?chunk:c.Request.chunk ?journal
          ?family:g.family
          ~store ~key ~encode:(Runner.encode g.collect) ~decode:(Runner.decode g.collect)
          ~f:cell ~n:g.n ()
      in
      (arr, Some stats)

let run c g = fst (run_stats c g)

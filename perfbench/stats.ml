(* Sample summaries and the failure tally every workload reports. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile: the sample at 1-based rank ceil(p·n). *)
let rank ~p n = max 1 (int_of_float (ceil (p *. float_of_int n)))

(* Samples strictly above the nearest-rank p-th percentile. A tail
   percentile is only reported when at least [min_beyond] samples lie
   beyond it, so p90 needs 100 samples and p99 needs 1000. *)
let beyond ~p n = n - rank ~p n

let min_beyond = 10
let supports ~p n = n > 0 && beyond ~p n >= min_beyond

(* [tail ~p xs] is the percentile to report for a requested [p]: [p]
   itself when the samples support it, else the highest percentile that
   still has [min_beyond] samples beyond it, else the median. Returns
   the value and the percentile it is. *)
let tail ~p xs =
  match sorted xs with
  | [||] -> (nan, p)
  | a ->
      let n = Array.length a in
      let r =
        if supports ~p n then rank ~p n
        else if n > min_beyond then n - min_beyond
        else rank ~p:0.5 n
      in
      (a.(r - 1), float_of_int r /. float_of_int n)

(* Operations attempted and failed; a failed operation is one whose output
   disagreed with its independent reference or that raised. *)
type tally = { mutable attempted : int; mutable failed : int; mutable first_failures : string list }

let tally () = { attempted = 0; failed = 0; first_failures = [] }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.first_failures < 10 then t.first_failures <- what :: t.first_failures
  end

(* [count t ~attempted ~failed] records a batch of operations at once. *)
let count t ~attempted ~failed what =
  t.attempted <- t.attempted + attempted;
  if failed > 0 then begin
    t.failed <- t.failed + failed;
    if List.length t.first_failures < 10 then t.first_failures <- what :: t.first_failures
  end

let failed_ratio t =
  if t.attempted = 0 then 1. else float_of_int t.failed /. float_of_int t.attempted

let correct t = t.attempted > 0 && t.failed = 0

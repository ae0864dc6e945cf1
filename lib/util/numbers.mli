(** Small number-theory helpers used by the parallel permutation strategy
    of Sec. 4.1 (thread↔test-instance assignment via [(v * p) mod n] with
    [p] coprime to [n]), and saturating products for sizing search
    spaces. *)

val gcd : int -> int -> int
(** [gcd a b] is the greatest common divisor of [abs a] and [abs b];
    [gcd 0 0 = 0]. *)

val coprime : int -> int -> bool
(** [coprime a b] is [gcd a b = 1]. *)

val random_coprime : Prng.t -> int -> int
(** [random_coprime g n] is a uniformly chosen [p] in [\[1, n)] with
    [gcd p n = 1]; returns [1] when [n <= 2]. The permutation
    [v -> v * p mod n] is then a bijection on [\[0, n)]. *)

val coprime_towards : int -> int -> int
(** [coprime_towards p n] is the smallest [p' >= p mod n] (wrapping past
    [n], and at least [1]) with [gcd p' n = 1] — used to repair a
    permutation multiplier after the carrier size changed. Returns [1]
    when [n <= 1]. *)

val permute : p:int -> n:int -> int -> int
(** [permute ~p ~n v] is [(v * p) mod n], the paper's low-overhead parallel
    permutation. Requires [n > 0]; values are computed without overflow for
    [n, p < 2^31]. *)

val is_permutation : p:int -> n:int -> bool
(** [is_permutation ~p ~n] checks (by the coprimality criterion) that
    [permute ~p ~n] is a bijection on [\[0, n)]. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is [a / b] rounded up, for positive [b]. *)

val mul_sat : int -> int -> int
(** [mul_sat a b] is [a * b] for non-negative [a] and [b], or [max_int]
    when the product would overflow. *)

val factorial_sat : int -> int
(** [factorial_sat n] is [n!] ([1] for [n <= 1]), saturating at
    [max_int] like {!mul_sat}. *)

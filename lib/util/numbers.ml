let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let coprime a b = gcd a b = 1

let random_coprime g n =
  if n <= 2 then 1
  else
    let rec draw () =
      let p = 1 + Prng.int g (n - 1) in
      if coprime p n then p else draw ()
    in
    draw ()

let coprime_towards p n =
  if n <= 1 then 1
  else begin
    let start =
      let m = p mod n in
      if m <= 0 then 1 else m
    in
    let rec search candidate remaining =
      if remaining = 0 then 1
      else if coprime candidate n then candidate
      else search (if candidate + 1 >= n then 1 else candidate + 1) (remaining - 1)
    in
    search start n
  end

let permute ~p ~n v =
  if n <= 0 then invalid_arg "Numbers.permute: n must be positive";
  v * p mod n

let is_permutation ~p ~n = n > 0 && coprime p n

let ceil_div a b = (a + b - 1) / b

let mul_sat a b = if a = 0 || b <= max_int / a then a * b else max_int

let factorial_sat n =
  let rec go acc i = if i <= 1 then acc else go (mul_sat acc i) (i - 1) in
  go 1 n

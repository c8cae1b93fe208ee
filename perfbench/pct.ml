(* Sample statistics with the benchmark's reporting rule: a percentile
   is reported only when at least ten samples lie beyond it. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile: the sample at rank ceil(p/100 * n). *)
let rank p n = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))

let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then None
  else
    let r = rank p n in
    if n - r >= 10 then Some a.(r - 1) else None

(* The median is reported whatever the sample count (0. on none). *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Order statistics over measured samples. *)

let min_beyond = 10

(* Nearest-rank [p]-th percentile of an ascending-sorted array, with [p] an
   integer percent.  Refused when fewer than [min_beyond] samples lie above
   it: such a percentile would be set by a handful of outliers. *)
let percentile sorted p =
  let n = Array.length sorted in
  if p < 1 || p > 99 then invalid_arg "Pct.percentile: p outside [1, 99]";
  let rank = ((p * n) + 99) / 100 in
  let beyond = n - rank in
  if n = 0 || beyond < min_beyond then
    Error
      (Printf.sprintf "p%d needs %d samples beyond it; %d samples leave %d" p min_beyond n
         (max 0 beyond))
  else Ok sorted.(rank - 1)

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Pct.median: no samples"
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Order statistics shared by the run and compare commands. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

(* Linear interpolation between closest ranks (numpy's default), so a
   percentile moves smoothly with the sample instead of jumping between
   order statistics. [q] in [0, 1]. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    let rank = q *. float_of_int (n - 1) in
    let lo = int_of_float rank in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)
  end

let median xs = percentile xs 0.5

(* First and third quartile exactly as Python's
   [statistics.quantiles(data, n=4)] computes them (its default
   "exclusive" method), so the spreads this program reports match the
   acceptance check run on the same numbers. A single sample is its own
   quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0))
  else begin
    let n = 4 and m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta)) /. float_of_int n
    in
    (q 1, q 3)
  end

(* Interquartile range as a share of the median (0 when the median is). *)
let spread xs =
  let q1, q3 = quartiles xs and m = median xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

(* Least-squares line through (x, y) points: (slope, intercept). *)
let fit_line pts =
  let n = float_of_int (List.length pts) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pts in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. pts in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. pts in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. pts in
  let slope = ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx)) in
  (slope, (sy -. (slope *. sx)) /. n)

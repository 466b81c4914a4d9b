(* Order statistics shared by the runner and [epicbench compare]. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in (0, 100]: the smallest sample with at
   least p% of the samples at or below it — the definition epicd's own
   latency reservoir uses, so the two can be read side by side. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)))

let median xs = percentile xs 50.

(* Samples strictly above the [p] percentile: a tail percentile is only
   reported when this is at least ten. *)
let beyond xs p =
  let n = List.length xs in
  n - max 1 (int_of_float (ceil (p /. 100. *. float_of_int n)))

(* The three cut points of Python's [statistics.quantiles(xs, n=4)] (the
   default "exclusive" method), so spreads printed here match the ones
   computed from the raw JSON with the standard library. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean xs = exp (mean (List.map log xs))

(* A JSON number carrying every digit of the measurement: the shortest
   of %.15g / %.17g that reads back to the same float. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

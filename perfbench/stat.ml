(* Order statistics over timing samples. *)

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Mean seconds per call of [f], calling it until at least [min_s]
   seconds have passed, so that calls of a few microseconds are timed
   well above the clock's resolution. *)
let per_call ?(min_s = 0.02) f =
  let t0 = now () in
  let rec go n =
    f ();
    let dt = now () -. t0 in
    if dt < min_s then go (n + 1) else dt /. float_of_int n
  in
  go 1

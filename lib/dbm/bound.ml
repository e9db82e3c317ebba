type t = int

(* Encoding: (c, <=) as [2c + 1], (c, <) as [2c], +oo as [max_int].
   [max_int] is odd, so it must be special-cased before decoding, but the
   integer order on encodings coincides with constraint strength, which
   makes [min]/[compare] free. *)

let infinity = max_int

(* |le c| <= 2|c| + 1, and the sum of two such encodings must stay
   below [max_int] (which is reserved for +oo) *)
let max_constant = max_int / 4
let le c = (c lsl 1) lor 1
let lt c = c lsl 1
let zero_le = le 0
let value b = b asr 1
let is_strict b = b = max_int || b land 1 = 0
let is_infinity b = b = max_int

let add b1 b2 =
  if b1 = max_int || b2 = max_int then max_int
  else b1 + b2 - ((b1 lor b2) land 1)

let min (b1 : t) (b2 : t) = if b1 < b2 then b1 else b2
let compare (b1 : t) (b2 : t) = Stdlib.compare b1 b2
let lt_bound (b1 : t) (b2 : t) = b1 < b2

let negate_weak b =
  assert (b <> max_int);
  if b land 1 = 1 then lt (-(value b)) else le (-(value b))

let sat d b =
  if b = max_int then true
  else if b land 1 = 1 then d <= value b
  else d < value b

external of_encoded : int -> t = "%identity"

let pp ppf b =
  if b = max_int then Format.pp_print_string ppf "<inf"
  else if b land 1 = 1 then Format.fprintf ppf "<=%d" (value b)
  else Format.fprintf ppf "<%d" (value b)

(** Bounds of difference constraints, i.e. the right-hand sides of
    [x - y <= c] and [x - y < c], plus the absent constraint [+oo].

    Bounds are encoded in a single native [int] so that DBMs are flat
    integer arrays: the encoding of [(c, <=)] is [2c + 1], the encoding of
    [(c, <)] is [2c], and [+oo] is [max_int].  The encoding is monotone:
    the natural integer order on encoded bounds coincides with the
    strength order on constraints ([b1 <= b2] iff the constraint [b1] is
    at least as tight as [b2]). *)

type t = private int

val infinity : t
(** The absent constraint [x - y < +oo]. *)

val max_constant : int
(** The largest constant magnitude a model may use: [le c] and [lt c]
    encode for every [|c| <= max_constant], and {!add} of any two such
    bounds does not overflow.  Larger constants would wrap around the
    native [int] and silently corrupt zones, so the network builder and
    the [.ta] elaborator reject them. *)

val le : int -> t
(** [le c] is the non-strict bound [(c, <=)]. *)

val lt : int -> t
(** [lt c] is the strict bound [(c, <)]. *)

val zero_le : t
(** [le 0], the most frequent bound. *)

val value : t -> int
(** [value b] is the finite constant of [b].  Meaningless on
    {!infinity}; callers must check {!is_infinity} first. *)

val is_strict : t -> bool
(** [is_strict b] is [true] on [lt c] bounds.  [infinity] is strict. *)

val is_infinity : t -> bool

val add : t -> t -> t
(** [add b1 b2] is the bound of the composed constraint: constants add,
    and the sum is strict iff either argument is strict.  Adding
    {!infinity} yields {!infinity}. *)

val min : t -> t -> t
(** Tighter of two bounds. *)

val compare : t -> t -> int
(** Strength order; [compare b1 b2 < 0] means [b1] is strictly tighter. *)

val lt_bound : t -> t -> bool
(** [lt_bound b1 b2] is [compare b1 b2 < 0]. *)

val negate_weak : t -> t
(** [negate_weak (c, ~)] is [(-c, ~')] where the strictness flips:
    the complement of [x - y <= c] is [y - x < -c] and vice versa.
    Undefined on {!infinity}. *)

val sat : int -> t -> bool
(** [sat d b] tests whether the concrete difference [d] satisfies the
    constraint [b], i.e. [d < c] or [d <= c]. *)

val pp : Format.formatter -> t -> unit

val of_encoded : int -> t
(** [of_encoded e] reinterprets a raw encoding as a bound.  Only for
    the {!Dbm} implementation, which stores encoded bounds in flat
    [int array]s; not for general use. *)

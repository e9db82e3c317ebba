module Dbm = Ita_dbm.Dbm

type assign =
  | Reset_clock of Guard.clock * Expr.iexp
  | Set_var of Expr.var * Expr.iexp

type t = assign list

exception Out_of_range of { var : Expr.var; value : int }

let none = []
let reset x = [ Reset_clock (x, Expr.Int 0) ]
let set v e = [ Set_var (v, e) ]
let incr v = [ Set_var (v, Expr.Add (Expr.Var v, Expr.Int 1)) ]
let decr v = [ Set_var (v, Expr.Sub (Expr.Var v, Expr.Int 1)) ]
let seq = List.concat

let set_checked ~ranges env v value =
  let lo, hi = ranges.(v) in
  if value < lo || value > hi then raise (Out_of_range { var = v; value });
  env.(v) <- value

let apply ~ranges env z u =
  let step = function
    | Reset_clock (x, e) ->
        let value = Expr.eval env e in
        assert (value >= 0);
        Dbm.reset z x value
    | Set_var (v, e) -> set_checked ~ranges env v (Expr.eval env e)
  in
  List.iter step u

let apply_env ~ranges env u =
  let step = function
    | Reset_clock _ -> ()
    | Set_var (v, e) -> set_checked ~ranges env v (Expr.eval env e)
  in
  List.iter step u

let pp ~clock_names ~var_names ppf u =
  let first = ref true in
  let sep () = if !first then first := false else Format.fprintf ppf ", " in
  let step = function
    | Reset_clock (x, e) ->
        sep ();
        Format.fprintf ppf "%s = %a" clock_names.(x)
          (Expr.pp_iexp var_names) e
    | Set_var (v, e) ->
        sep ();
        Format.fprintf ppf "%s = %a" var_names.(v)
          (Expr.pp_iexp var_names) e
  in
  List.iter step u

(** Name resolution and translation from the parsed {!Ast.t} to a
    checkable {!Ita_ta.Network.t} plus its queries. *)

open Ita_ta

exception Elab_error of { pos : Ast.pos option; message : string }
(** [pos] locates the offending location or edge declaration when the
    error is tied to one (e.g. an out-of-range clock constant). *)

type query =
  | Reach_q of Ita_mc.Query.t
  | Sup_q of { clock : Guard.clock; at : Ita_mc.Query.t }
  | Deadlock_q

type srcmap = {
  proc_pos : Ast.pos array;  (** indexed by component *)
  loc_pos : Ast.pos array array;  (** [loc_pos.(comp).(loc)] *)
  edge_pos : Ast.pos array array;  (** [edge_pos.(comp).(edge)] *)
}
(** Source positions of the declarations behind each network index, for
    mapping analyzer diagnostics back to the [.ta] file. *)

type t = { net : Network.t; queries : query list; srcmap : srcmap }

val elaborate : ?validate:bool -> Ast.t -> t
(** @raise Elab_error on unresolved names, clock constraints under
    disjunction/negation, comparisons between two clocks, or clock
    constants beyond {!Ita_dbm.Bound.max_constant}.
    @raise Network.Invalid_model via the builder's static checks.
    [~validate:false] skips the builder's urgent/broadcast clock-guard
    checks so the linter can diagnose them instead; such a network must
    not be model checked. *)

val load_file : ?validate:bool -> string -> t
(** Parse and elaborate. *)

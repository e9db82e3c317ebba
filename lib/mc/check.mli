(** The [.ta] query checker: one property in, a verdict and (on request)
    its certificate out.  This is what [tamc check] runs per query and
    what the test suites compare across engine configurations.

    A property is one of the three questions the paper puts to UPPAAL:
    reachability of a goal ([E<> p]), the supremum of a clock over the
    goal states (the WCRT of Property 1), or deadlock freedom. *)

open Ita_ta

type property =
  | Reach_q of Query.t
  | Sup_q of { clock : Guard.clock; at : Query.t }
  | Deadlock_q

type deadlock =
  | Deadlock_at of Semantics.state
      (** the first stored symbolic state with no successor *)
  | Deadlock_free of Reach.stats
  | Deadlock_budget_exhausted of Reach.stats
      (** no deadlock found within the budget: freedom is NOT
          established *)

type verdict =
  | Reach_result of Reach.outcome
  | Sup_result of Wcrt.sup_result
  | Deadlock_result of deadlock

val run :
  ?order:Reach.order ->
  ?budget:Reach.budget ->
  ?abstraction:Reach.abstraction ->
  ?domains:int ->
  ?slicing:Reach.slicing ->
  cert:bool ->
  index:int ->
  Network.t ->
  property ->
  verdict * (Ita_cert.Cert.query_cert, string) result
(** [run ~cert ~index net p] checks [p] with {!Reach.reach},
    {!Wcrt.sup} (at its default extrapolation ceilings) or a full
    {!Reach.explore} that keeps the first stored state without
    successors.  [?slicing] does not apply to deadlock freedom, a
    whole-network property.

    With [~cert:true] a reachable, unreachable or sup verdict comes
    with its certificate for query [index] ({!Cert_emit.of_witness} /
    {!Cert_emit.of_snapshot}); every other verdict comes with the
    reason it is not certified, as [tamc check --cert] prints it.
    With [~cert:false] no snapshot is taken and the second component
    is always [Error].

    @raise Ita_ta.Update.Out_of_range as {!Reach.reach} does. *)

val observed : property list -> Ita_analysis.Slice.goal
(** The seed of the properties' backward cone of influence: the
    components they name, the clocks they test or measure, the
    variables they read — exactly what {!Reach.slice_query} slices
    each one on.  Deadlock freedom observes nothing. *)

val goal : property -> Ita_cert.Cert.goal option
(** The goal a certificate of [p] is checked against; [None] for
    deadlock freedom, which has no certificate format. *)

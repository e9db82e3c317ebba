open Ita_ta
module Cert = Ita_cert.Cert
module Slice = Ita_analysis.Slice

type property =
  | Reach_q of Query.t
  | Sup_q of { clock : Guard.clock; at : Query.t }
  | Deadlock_q

type deadlock =
  | Deadlock_at of Semantics.state
  | Deadlock_free of Reach.stats
  | Deadlock_budget_exhausted of Reach.stats

type verdict =
  | Reach_result of Reach.outcome
  | Sup_result of Wcrt.sup_result
  | Deadlock_result of deadlock

let deadlock ?order ?budget ?abstraction ?domains net =
  let dead = ref None in
  let result =
    Reach.explore ?order ?budget ?abstraction ?domains net ~on_store:(fun cfg ->
        if !dead = None && Semantics.successors net cfg = [] then
          dead := Some cfg.Semantics.state)
  in
  match (!dead, result) with
  | Some st, _ -> Deadlock_at st
  | None, `Complete stats -> Deadlock_free stats
  | None, `Budget_exhausted stats -> Deadlock_budget_exhausted stats

let run ?order ?budget ?abstraction ?domains ?slicing ~cert ~index net p =
  let snapshot = ref None in
  let snap = if cert then Some (fun s -> snapshot := Some s) else None in
  let of_snapshot verdict =
    match !snapshot with
    | Some s -> Ok (Cert_emit.of_snapshot ~index ~verdict s)
    | None -> Error "no snapshot surfaced"
  in
  let verdict, certificate =
    match p with
    | Reach_q q -> (
        let o =
          Reach.reach ?order ?budget ?abstraction ?domains ?slicing ?snap net q
        in
        ( Reach_result o,
          match o with
          | Reach.Reachable { witness; _ } ->
              Ok
                (Cert_emit.of_witness ~index
                   (List.filter_map (fun (s : Reach.step) -> s.Reach.via) witness))
          | Reach.Unreachable _ -> of_snapshot Cert.Unreachable
          | Reach.Budget_exhausted _ -> Error "no verdict" ))
    | Sup_q { clock; at } -> (
        let r =
          Wcrt.sup ?order ?budget ?abstraction ?domains ?slicing ?snap net ~at
            ~clock
        in
        ( Sup_result r,
          match r with
          | Wcrt.Sup { value; kind; _ } ->
              of_snapshot (Cert.Sup { clock; value; kind })
          | Wcrt.Goal_unreachable _ ->
              Error "goal unreachable: sup has no value to certify"
          | Wcrt.Sup_unbounded _ -> Error "no bounded verdict"
          | Wcrt.Sup_budget_exhausted _ -> Error "no verdict" ))
    | Deadlock_q ->
        ( Deadlock_result (deadlock ?order ?budget ?abstraction ?domains net),
          Error "deadlock queries have no certificate format" )
  in
  (verdict, if cert then certificate else Error "no certificate requested")

let observed ps =
  let seeds =
    List.filter_map
      (function
        | Reach_q q -> Some (Reach.cone_seed q)
        | Sup_q { clock; at } -> Some (Reach.cone_seed ~extra_clocks:[ clock ] at)
        | Deadlock_q -> None)
      ps
  in
  let union field = List.sort_uniq compare (List.concat_map field seeds) in
  {
    Slice.g_comps = union (fun g -> g.Slice.g_comps);
    g_clocks = union (fun g -> g.Slice.g_clocks);
    g_vars = union (fun g -> g.Slice.g_vars);
  }

let goal = function
  | Reach_q q | Sup_q { at = q; _ } -> Some (Cert_emit.goal_of_query q)
  | Deadlock_q -> None

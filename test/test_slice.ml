(* Query-directed model reduction (Slice): unit tests of the cone and
   the quasi-equal merge on hand-built networks, and differential
   suites showing that slicing changes no verdict and no WCRT — on the
   model zoo, on the shipped example models, on the radionav case
   study and on random automata checked against a concrete-walk
   oracle — across both abstractions and 1/4 worker domains. *)

open Ita_ta
open Ita_mc
module Slice = Ita_analysis.Slice
module Dbm = Ita_dbm.Dbm
module R = Ita_casestudy.Radionav
module E = Ita_tafmt.Elaborate

let loc = Models.loc
let edge = Models.edge

let verdict = function
  | Reach.Reachable _ -> "reachable"
  | Reach.Unreachable _ -> "unreachable"
  | Reach.Budget_exhausted _ -> "budget"

let sup_fp ?(initial_ceiling = 64) ?(max_ceiling = 256) ?abstraction ?domains
    ~slicing net ~at ~clock () =
  match
    Wcrt.sup ?abstraction ?domains ~slicing ~initial_ceiling ~max_ceiling net
      ~at ~clock
  with
  | Wcrt.Sup { value; kind; _ } ->
      Printf.sprintf "sup %d %s" value
        (match kind with
        | Wcrt.Attained -> "attained"
        | Wcrt.Approached -> "approached")
  | Wcrt.Goal_unreachable _ -> "unreachable"
  | Wcrt.Sup_budget_exhausted _ -> "budget"
  | Wcrt.Sup_unbounded _ -> "unbounded"

(* ------------------------------------------------------------------ *)
(* Hand-built networks                                                 *)
(* ------------------------------------------------------------------ *)

(* P (queried) handshakes with R; Q is an island — Normal locations,
   no invariants, no synchronization, its own clock and variable — so
   the cone must remove Q, its clock and its variable while keeping
   the sync peer R. *)
let island_net () =
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  let z = Network.Builder.clock b "z" in
  let v = Network.Builder.int_var b "v" ~lo:0 ~hi:3 ~init:0 in
  let c = Network.Builder.channel b "c" Channel.Binary ~urgent:false in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:
         [
           loc "L0";
           loc "L1" ~invariant:(Guard.clock_le x 5);
           loc "L2" ~kind:Automaton.Committed;
         ]
       ~edges:
         [
           edge 0 1 ~sync:(Automaton.Send c) ~update:(Update.reset x);
           edge 1 2 ~guard:(Guard.clock_ge x 3);
         ]
       ~initial:0);
  Network.Builder.add_automaton b
    (Automaton.make ~name:"Q"
       ~locations:[ loc "K0" ]
       ~edges:
         [
           edge 0 0
             ~guard:(Guard.clock_ge z 2)
             ~update:(Update.reset z @ Update.set v (Expr.Int 1));
         ]
       ~initial:0);
  Network.Builder.add_automaton b
    (Automaton.make ~name:"R"
       ~locations:[ loc "M0"; loc "M1" ]
       ~edges:[ edge 0 1 ~sync:(Automaton.Recv c); edge 1 0 ]
       ~initial:0);
  (Network.Builder.build b, x, z, v)

let test_island_cone () =
  let net, x, z, v = island_net () in
  let at = Query.at net ~comp:"P" ~loc:"L2" in
  let sl, snet, _ = Reach.slice_query Reach.CoiMerge net at in
  Alcotest.(check (list int)) "Q removed" [ 1 ] sl.Slice.removed_comps;
  Alcotest.(check (list int)) "z removed" [ z ] sl.Slice.removed_clocks;
  Alcotest.(check (list int)) "v removed" [ v ] sl.Slice.removed_vars;
  Alcotest.(check bool) "not identity" false sl.Slice.identity;
  Alcotest.(check (option int)) "P mapped" (Some 0) (Slice.map_comp sl 0);
  Alcotest.(check (option int)) "Q unmapped" None (Slice.map_comp sl 1);
  Alcotest.(check (option int)) "R mapped" (Some 1) (Slice.map_comp sl 2);
  Alcotest.(check (option int)) "x kept" (Some 1) (Slice.map_clock sl x);
  Alcotest.(check (option int)) "z dropped" None (Slice.map_clock sl z);
  Alcotest.(check int) "two automata left" 2
    (Array.length snet.Network.automata);
  Alcotest.(check int) "one clock left" 2
    (Array.length snet.Network.clock_names);
  (* the verdict and the unmapped witness must look like the original
     network's: full-width location vector, Q frozen at its initial
     location, goal zone at the original DBM dimension *)
  List.iter
    (fun slicing ->
      match Reach.reach ~slicing net at with
      | Reach.Reachable { witness; goal_zone; _ } ->
          let last = List.nth witness (List.length witness - 1) in
          let locs = last.Reach.state.Semantics.locs in
          Alcotest.(check int) "witness width" 3 (Array.length locs);
          Alcotest.(check int) "P at L2" 2 locs.(0);
          Alcotest.(check int) "Q frozen at K0" 0 locs.(1);
          Alcotest.(check int) "goal zone dimension" 3 (Dbm.dim goal_zone)
      | _ -> Alcotest.fail "goal should be reachable")
    [ Reach.Off; Reach.CoiMerge ]

let test_island_lint_cone () =
  let net, _, _, _ = island_net () in
  let module D = Ita_analysis.Diagnostic in
  let module Lint = Ita_analysis.Lint in
  let cone_findings fs = D.by_pass D.Outside_cone fs in
  (* without observed components there is no query, hence no pass *)
  Alcotest.(check int) "no query, no cone findings" 0
    (List.length (cone_findings (Lint.run net)));
  let fs = cone_findings (Lint.run ~observed_comps:[ 0 ] net) in
  Alcotest.(check int) "one cone finding" 1 (List.length fs);
  match fs with
  | [ d ] ->
      Alcotest.(check string) "hint severity" "hint"
        (D.severity_name d.D.severity);
      Alcotest.(check bool) "at Q" true (d.D.site = D.Automaton_site 1)
  | _ -> assert false

(* A single component whose clocks x and y are always reset together:
   CoiMerge must merge y into x (one DBM dimension less) and change
   neither verdicts nor sups. *)
let twin_net () =
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  let y = Network.Builder.clock b "y" in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"M"
       ~locations:
         [ loc "A"; loc "B" ~invariant:(Guard.clock_le x 4); loc "C" ]
       ~edges:
         [
           edge 0 1 ~update:(Update.reset x @ Update.reset y);
           edge 1 2 ~guard:(Guard.conj (Guard.clock_ge x 2) (Guard.clock_ge y 2));
           edge 2 0 ~update:(Update.reset x @ Update.reset y);
         ]
       ~initial:0);
  (Network.Builder.build b, x, y)

let test_twin_merge () =
  let net, x, y = twin_net () in
  let at = Query.at net ~comp:"M" ~loc:"C" in
  let sl, snet, _ = Reach.slice_query Reach.CoiMerge ~extra_clocks:[ y ] net at in
  Alcotest.(check bool) "y merged into x" true (sl.Slice.merged = [ (y, x) ]);
  Alcotest.(check int) "one clock left" 2
    (Array.length snet.Network.clock_names);
  Alcotest.(check (option int)) "y maps to x's slot" (Slice.map_clock sl x)
    (Slice.map_clock sl y);
  (* sup over the merged-away clock still answers, identically *)
  Alcotest.(check string) "sup y unchanged"
    (sup_fp ~slicing:Reach.Off net ~at ~clock:y ())
    (sup_fp ~slicing:Reach.CoiMerge net ~at ~clock:y ());
  (* the unmapped goal zone must pin the merged clocks equal *)
  match Reach.reach ~slicing:Reach.CoiMerge net at with
  | Reach.Reachable { goal_zone; _ } ->
      Alcotest.(check int) "goal zone dimension" 3 (Dbm.dim goal_zone);
      Alcotest.(check bool) "x = y in the unmapped zone" true
        (Dbm.get goal_zone x y = Ita_dbm.Bound.le 0
        && Dbm.get goal_zone y x = Ita_dbm.Bound.le 0)
  | _ -> Alcotest.fail "C should be reachable"

(* The station family: a measured server with a quasi-equal clock pair
   plus sporadic clients outside the cone.  Slicing's strict win: same
   sup, strictly fewer explored states, strictly fewer clocks. *)
let station_net n =
  let b = Network.Builder.create () in
  let y = Network.Builder.clock b "y" in
  let y2 = Network.Builder.clock b "y2" in
  let clocks =
    Array.init n (fun i -> Network.Builder.clock b (Printf.sprintf "x%d" i))
  in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"Station"
       ~locations:
         [
           loc "Idle";
           loc "Busy" ~invariant:(Guard.clock_le y 10);
           loc "Done" ~kind:Automaton.Committed;
         ]
       ~edges:
         [
           edge 0 1 ~update:(Update.reset y @ Update.reset y2);
           edge 1 2
             ~guard:(Guard.conj (Guard.clock_ge y 5) (Guard.clock_ge y2 5));
           edge 2 0;
         ]
       ~initial:0);
  for i = 0 to n - 1 do
    let x = clocks.(i) in
    Network.Builder.add_automaton b
      (Automaton.make
         ~name:(Printf.sprintf "C%d" i)
         ~locations:[ loc "L" ]
         ~edges:
           [ edge 0 0 ~guard:(Guard.clock_ge x (3 + (2 * i))) ~update:(Update.reset x) ]
         ~initial:0)
  done;
  Network.Builder.build b

let test_station_strict_win () =
  let net = station_net 3 in
  let at = Query.at net ~comp:"Station" ~loc:"Done" in
  let clock = 1 (* y *) in
  let run slicing =
    match Wcrt.sup ~slicing ~domains:1 net ~at ~clock with
    | Wcrt.Sup { value; stats; _ } -> (value, stats.Reach.explored)
    | _ -> Alcotest.fail "expected a finite sup"
  in
  let v_off, n_off = run Reach.Off in
  let v_on, n_on = run Reach.CoiMerge in
  Alcotest.(check int) "same WCRT" v_off v_on;
  Alcotest.(check bool)
    (Printf.sprintf "strictly fewer states (%d < %d)" n_on n_off)
    true (n_on < n_off);
  let sl, snet, _ = Reach.slice_query Reach.CoiMerge ~extra_clocks:[ clock ] net at in
  Alcotest.(check int) "all clients removed" 3
    (List.length sl.Slice.removed_comps);
  Alcotest.(check bool) "y2 merged" true (sl.Slice.merged = [ (2, 1) ]);
  Alcotest.(check int) "clocks 6 -> 2" 2
    (Array.length snet.Network.clock_names)

(* Every component of the handshake is in the cone of a query on S
   (R is S's binary peer), so the slice must be the identity — same
   network, same exploration, byte-identical stats. *)
let test_identity () =
  let net = fst (Models.handshake ()) in
  let at = Query.at net ~comp:"S" ~loc:"P1" in
  let sl, snet, at' = Reach.slice_query Reach.CoiMerge net at in
  Alcotest.(check bool) "identity" true sl.Slice.identity;
  Alcotest.(check bool) "same network" true (snet == net);
  Alcotest.(check bool) "same query" true (at' == at);
  let explored slicing =
    match Reach.reach ~slicing ~domains:1 net at with
    | Reach.Reachable { stats; _ } -> stats.Reach.explored
    | _ -> Alcotest.fail "reachable"
  in
  Alcotest.(check int) "byte-identical exploration" (explored Reach.Off)
    (explored Reach.CoiMerge)

(* pp_report smoke: the report must mention the removals and carry the
   resolver's provenance prefix *)
let test_report () =
  let net, _, _, _ = island_net () in
  let at = Query.at net ~comp:"P" ~loc:"L2" in
  let sl, _, _ = Reach.slice_query Reach.CoiMerge net at in
  let resolve = function
    | Ita_analysis.Diagnostic.Automaton_site i ->
        Some (Printf.sprintf "model.ta:%d:1" (i + 1))
    | _ -> None
  in
  let report = Format.asprintf "%a" (Slice.pp_report ~resolve) sl in
  let has needle =
    let nl = String.length needle and rl = String.length report in
    let rec at i =
      if i + nl > rl then false
      else String.sub report i nl = needle || at (i + 1)
    in
    at 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "report mentions %S" needle)
        true (has needle))
    [ "model.ta:2:1"; "Q"; "z"; "v" ]

(* ------------------------------------------------------------------ *)
(* Differential: the model zoo, all modes x abstractions x domains     *)
(* ------------------------------------------------------------------ *)

let zoo () =
  [
    ("two-phase", (let net, _, _ = Models.two_phase () in net));
    ("urgent-gate", fst (Models.urgent_gate ()));
    ("committed-gate", fst (Models.committed_gate ()));
    ("handshake", fst (Models.handshake ()));
    ("broadcast", Models.broadcast_pair ());
    ("island", (let net, _, _, _ = island_net () in net));
    ("twin", (let net, _, _ = twin_net () in net));
  ]

let check_net_differential name net =
  let n_clocks = Array.length net.Network.clock_names in
  Array.iter
    (fun (a : Automaton.t) ->
      Array.iter
        (fun (l : Automaton.location) ->
          let at =
            Query.at net ~comp:a.Automaton.name ~loc:l.Automaton.loc_name
          in
          for x = 1 to n_clocks - 1 do
            List.iter
              (fun c ->
                let q = Query.with_guard at (Guard.clock_ge x c) in
                let base =
                  verdict (Reach.reach ~slicing:Reach.Off ~domains:1 net q)
                in
                List.iter
                  (fun (slicing, abstraction, d) ->
                    Alcotest.(check string)
                      (Printf.sprintf "%s: verdict %s >= %d at %s.%s" name
                         net.Network.clock_names.(x) c a.Automaton.name
                         l.Automaton.loc_name)
                      base
                      (verdict
                         (Reach.reach ~slicing ~abstraction ~domains:d net q)))
                  [
                    (Reach.Off, Reach.LuSim, 1);
                    (Reach.Off, Reach.ExtraLU, 4);
                    (Reach.CoiMerge, Reach.ExtraLU, 1);
                    (Reach.CoiMerge, Reach.LuSim, 1);
                    (Reach.CoiMerge, Reach.ExtraLU, 4);
                    (Reach.CoiMerge, Reach.LuSim, 4);
                  ])
              [ 1; 7 ];
            let base = sup_fp ~slicing:Reach.Off ~domains:1 net ~at ~clock:x () in
            List.iter
              (fun (slicing, abstraction, d) ->
                Alcotest.(check string)
                  (Printf.sprintf "%s: sup %s at %s.%s" name
                     net.Network.clock_names.(x) a.Automaton.name
                     l.Automaton.loc_name)
                  base
                  (sup_fp ~slicing ~abstraction ~domains:d net ~at ~clock:x ()))
              [
                (Reach.Off, Reach.LuSim, 1);
                (Reach.CoiMerge, Reach.ExtraLU, 1);
                (Reach.CoiMerge, Reach.LuSim, 1);
                (Reach.CoiMerge, Reach.ExtraLU, 4);
              ]
          done)
        a.Automaton.locations)
    net.Network.automata

let test_zoo_differential () =
  List.iter (fun (name, net) -> check_net_differential name net) (zoo ())

let test_station_differential () =
  check_net_differential "station" (station_net 2)

(* ------------------------------------------------------------------ *)
(* Differential: the shipped example models' own queries               *)
(* ------------------------------------------------------------------ *)

let model_path name =
  let candidates =
    [ "../examples/models/" ^ name; "examples/models/" ^ name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "%s not found" name

let test_examples_differential () =
  List.iter
    (fun file ->
      let { E.net; queries; _ } = E.load_file (model_path file) in
      List.iteri
        (fun i q ->
          match q with
          | E.Reach_q q ->
              Alcotest.(check string)
                (Printf.sprintf "%s query %d" file i)
                (verdict (Reach.reach ~slicing:Reach.Off net q))
                (verdict (Reach.reach ~slicing:Reach.CoiMerge net q))
          | E.Sup_q { clock; at } ->
              let sup slicing =
                sup_fp ~initial_ceiling:1_000_000 ~max_ceiling:(1 lsl 40)
                  ~slicing net ~at ~clock ()
              in
              Alcotest.(check string)
                (Printf.sprintf "%s sup query %d" file i)
                (sup Reach.Off) (sup Reach.CoiMerge)
          | E.Deadlock_q -> ())
        queries)
    [ "fischer.ta"; "train_gate.ta"; "two_phase.ta" ]

(* ------------------------------------------------------------------ *)
(* Differential: the radionav case study's validated cells             *)
(* ------------------------------------------------------------------ *)

let test_radionav_differential () =
  (* at one domain the explored counts are deterministic, and the
     slice must not explore more than the full network *)
  List.iter
    (fun (combo, scen, req, expected) ->
      let sys = R.system combo R.Po in
      let name = Printf.sprintf "%s %s/%s" (R.combo_name combo) scen req in
      let explored ?domains slicing =
        let r =
          Ita_core.Analyze.wcrt ?domains ~slicing sys ~scenario:scen
            ~requirement:req
        in
        match r.Ita_core.Analyze.outcome with
        | Ita_core.Analyze.Exact_wcrt v ->
            Alcotest.(check int) name expected v;
            r.Ita_core.Analyze.explored
        | _ -> Alcotest.failf "%s: expected exact WCRT" name
      in
      let off = explored ~domains:1 Reach.Off
      and on = explored ~domains:1 Reach.CoiMerge in
      Alcotest.(check bool)
        (Printf.sprintf "%s: CoiMerge explored %d <= Off %d" name on off)
        true (on <= off);
      List.iter
        (fun slicing -> ignore (explored slicing))
        [ Reach.Off; Reach.CoiMerge ])
    Models.radionav_po_cells

(* ------------------------------------------------------------------ *)
(* Random automata: a queried component plus a removable island, with
   a concrete-walk oracle on the ORIGINAL network — any goal the walk
   hits must be reachable in the sliced exploration too.               *)
(* ------------------------------------------------------------------ *)

let gen_random_island_net =
  let open QCheck2.Gen in
  let gen_atom clock =
    let* rel = oneofl [ Guard.Lt; Guard.Le; Guard.Ge; Guard.Gt; Guard.Eq ] in
    let* c = int_range 0 8 in
    return (Guard.clock_rel clock rel (Expr.Int c))
  in
  let* nl = int_range 2 4 in
  let* invariants =
    list_repeat nl
      (let* inv = bool in
       let* c = int_range 1 8 in
       return (if inv then Guard.clock_le 1 c else Guard.tt))
  in
  let* n_edges = int_range nl (2 * nl) in
  let* p_edges =
    list_repeat n_edges
      (let* src = int_range 0 (nl - 1) and* dst = int_range 0 (nl - 1) in
       let* use_g = bool in
       let* g = gen_atom 1 in
       let* reset = bool in
       return
         (edge src dst
            ~guard:(if use_g then g else Guard.tt)
            ~update:(if reset then Update.reset 1 else [])))
  in
  (* the island: self-loops over its own clock, Normal locations only,
     so it is provably outside any cone rooted at P *)
  let* q_edges =
    let* lo = int_range 1 5 in
    return [ edge 0 0 ~guard:(Guard.clock_ge 2 lo) ~update:(Update.reset 2) ]
  in
  let b = Network.Builder.create () in
  let _x = Network.Builder.clock b "x" in
  let _z = Network.Builder.clock b "z" in
  let locations =
    List.mapi
      (fun i inv -> loc (Printf.sprintf "L%d" i) ~invariant:inv)
      invariants
  in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P" ~locations ~edges:p_edges ~initial:0);
  Network.Builder.add_automaton b
    (Automaton.make ~name:"Q" ~locations:[ loc "K0" ] ~edges:q_edges
       ~initial:0);
  return (Network.Builder.build b, nl)

(* Concrete.random_walk fires any enabled edge; random nets have edges
   into locations whose invariant then fails, which the symbolic
   engine drops as empty zones — skip those, as test_par does. *)
let safe_walk net ~seed ~steps ~max_step_delay =
  let rng = Ita_util.Prng.create seed in
  let fire c label =
    match Concrete.apply net c (Concrete.Fire label) with
    | c' -> Some c'
    | exception Invalid_argument _ -> None
  in
  let rec go c k acc =
    if k = 0 then List.rev acc
    else
      let dmax =
        match Concrete.max_delay net c with
        | None -> max_step_delay
        | Some m -> min m max_step_delay
      in
      let d = if dmax > 0 then Ita_util.Prng.int rng (dmax + 1) else 0 in
      let c = if d > 0 then Concrete.apply net c (Concrete.Delay d) else c in
      let acc = if d > 0 then c :: acc else acc in
      match List.filter_map (fire c) (Concrete.fireable net c) with
      | [] -> if d = 0 then List.rev acc else go c (k - 1) acc
      | succs ->
          let c' = List.nth succs (Ita_util.Prng.int rng (List.length succs)) in
          go c' (k - 1) (c' :: acc)
  in
  go (Concrete.initial net) steps []

let test_random_island =
  QCheck2.Test.make ~count:60
    ~name:"sliced verdicts agree with unsliced and with concrete walks"
    QCheck2.Gen.(triple gen_random_island_net (int_range 0 10) (int_range 1 10_000))
    (fun ((net, nl), c, seed) ->
      let ok = ref true in
      let walk = safe_walk net ~seed ~steps:40 ~max_step_delay:7 in
      for l = 0 to nl - 1 do
        let at = Query.at net ~comp:"P" ~loc:(Printf.sprintf "L%d" l) in
        let q = Query.with_guard at (Guard.clock_ge 1 c) in
        let base = verdict (Reach.reach ~slicing:Reach.Off net q) in
        List.iter
          (fun abstraction ->
            if
              verdict
                (Reach.reach ~slicing:Reach.CoiMerge ~abstraction net q)
              <> base
            then ok := false)
          [ Reach.ExtraLU; Reach.LuSim ];
        (* the oracle: a concrete state of the ORIGINAL network hitting
           the goal forces the sliced verdict to be reachable *)
        let concretely_hit =
          List.exists
            (fun (cc : Concrete.t) ->
              cc.Concrete.locs.(0) = l && cc.Concrete.clocks.(1) >= c)
            walk
        in
        if
          concretely_hit
          && verdict (Reach.reach ~slicing:Reach.CoiMerge net q) <> "reachable"
        then ok := false
      done;
      (* the island must actually be sliced away whenever the query
         does not observe it *)
      let at = Query.at net ~comp:"P" ~loc:"L0" in
      let sl, _, _ = Reach.slice_query Reach.CoiMerge net at in
      if sl.Slice.removed_comps <> [ 1 ] then ok := false;
      !ok)

let () =
  Alcotest.run "slice"
    [
      ( "unit",
        [
          Alcotest.test_case "island cone" `Quick test_island_cone;
          Alcotest.test_case "island lint pass" `Quick test_island_lint_cone;
          Alcotest.test_case "quasi-equal merge" `Quick test_twin_merge;
          Alcotest.test_case "station strict win" `Quick
            test_station_strict_win;
          Alcotest.test_case "identity fast path" `Quick test_identity;
          Alcotest.test_case "report provenance" `Quick test_report;
        ] );
      ( "differential",
        [
          Alcotest.test_case "model zoo" `Quick test_zoo_differential;
          Alcotest.test_case "station family" `Quick
            test_station_differential;
          Alcotest.test_case "example models" `Quick
            test_examples_differential;
          Alcotest.test_case "radionav cells" `Slow
            test_radionav_differential;
        ] );
      ( "random",
        [ QCheck_alcotest.to_alcotest test_random_island ] );
    ]

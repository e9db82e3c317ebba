(* Dataflow-engine tests: the semantic lint passes on the shipped demo
   model (findings the purely syntactic passes cannot see) and qcheck
   soundness of the inferred intervals against concrete random walks,
   and the contract of the flow-refined L/U tables (a pointwise
   tightening of the builder's).  The refined bounds every exploration
   uses are also validated by the independent certificate checker
   (test_cert). *)

open Ita_ta
module Flow = Ita_analysis.Flow
module D = Ita_analysis.Diagnostic
module Lint = Ita_analysis.Lint
module E = Ita_tafmt.Elaborate

let loc = Models.loc
let edge = Models.edge

(* ------------------------------------------------------------------ *)
(* The shipped demo: dead edge, always-true guard and write-write race,
   all invisible to the syntactic passes.                              *)
(* ------------------------------------------------------------------ *)

let demo_path () =
  match
    List.find_opt Sys.file_exists [ "flow_demo.ta"; "test/flow_demo.ta" ]
  with
  | Some p -> p
  | None -> Alcotest.fail "flow_demo.ta not found"

let test_demo_semantic_passes () =
  let { E.net; queries; _ } = E.load_file (demo_path ()) in
  let { Ita_analysis.Slice.g_clocks; g_vars; _ } =
    Ita_mc.Check.observed queries
  in
  let findings =
    Lint.run ~observed_clocks:g_clocks ~observed_vars:g_vars net
  in
  (* one dead edge (m == 3 at L1) plus the location it orphans *)
  Alcotest.(check int)
    "dead-edge findings" 2
    (List.length (D.by_pass D.Dead_edge findings));
  if D.by_pass D.Trivial_guard findings = [] then
    Alcotest.fail "expected always-true-guard hints";
  (match D.by_pass D.Sync_write_race findings with
  | [ d ] ->
      Alcotest.(check string)
        "race severity" "warning"
        (D.severity_name d.D.severity)
  | l -> Alcotest.failf "expected one sync-write-race, got %d" (List.length l));
  (* every warning-or-worse finding comes from a semantic pass: the
     syntactic linter alone accepts this model *)
  List.iter
    (fun (d : D.t) ->
      if
        D.compare_severity d.D.severity D.Warning >= 0
        && not (List.mem d.D.pass [ D.Dead_edge; D.Trivial_guard; D.Sync_write_race ])
      then Alcotest.failf "unexpected syntactic warning: %s" (D.pass_name d.D.pass))
    findings

let test_demo_intervals () =
  let { E.net; _ } = E.load_file (demo_path ()) in
  let fa = Flow.analyze net in
  let var name =
    let names = net.Network.var_names in
    let rec go i = if names.(i) = name then i else go (i + 1) in
    go 0
  in
  let m = var "m" and v = var "v" in
  Alcotest.(check bool) "L2 flow-unreachable" false (Flow.reachable fa 0 2);
  (match Flow.env_at fa 0 1 with
  | Some env -> Alcotest.(check (pair int int)) "m at A.L1" (1, 1) env.(m)
  | None -> Alcotest.fail "A.L1 should be reachable");
  let g = Flow.global_ranges fa in
  Alcotest.(check (pair int int)) "global m" (0, 1) g.(m);
  Alcotest.(check (pair int int)) "global v" (0, 2) g.(v);
  (* v is written on both sides of the handshake: unstable everywhere *)
  Alcotest.(check bool) "v unstable for A" false (Flow.stable_var fa 0 v);
  Alcotest.(check bool) "m stable for A" true (Flow.stable_var fa 0 m)

(* ------------------------------------------------------------------ *)
(* Interval soundness: on random networks, every variable valuation a
   concrete random walk visits lies inside the inferred per-location
   interval of every component and inside the global ranges.  Updates
   are self-clamping (Ite-guarded), so walks never trip the runtime
   range check and the declared range stays deliberately loose — the
   analysis has something real to tighten.                             *)
(* ------------------------------------------------------------------ *)

let build_random ~n_locs ~hi ~init ~sync ~edges =
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  let v = Network.Builder.int_var b "v" ~lo:0 ~hi ~init in
  let c =
    if sync then Some (Network.Builder.channel b "c" Channel.Binary ~urgent:false)
    else None
  in
  let bump =
    Update.set v Expr.(Ite (Cmp (Lt, Var v, Int hi), Add (Var v, Int 1), Var v))
  in
  let drop =
    Update.set v Expr.(Ite (Cmp (Gt, Var v, Int 0), Sub (Var v, Int 1), Var v))
  in
  let guard_of gk k =
    match gk with
    | 0 -> Guard.tt
    | 1 -> Guard.data Expr.(Cmp (Le, Var v, Int k))
    | 2 -> Guard.data Expr.(Cmp (Ge, Var v, Int k))
    | _ -> Guard.clock_ge x 1
  in
  let update_of uk k =
    match uk with
    | 0 -> Update.none
    | 1 -> Update.set v (Expr.Int k)
    | 2 -> bump
    | _ -> drop
  in
  let a_edges =
    List.map
      (fun ((src, dst), (gk, (uk, k))) ->
        edge src dst ~guard:(guard_of gk k) ~update:(update_of uk k))
      edges
    @
    match c with
    | Some ch ->
        [
          edge 0 0 ~sync:(Automaton.Send ch) ~guard:(Guard.clock_ge x 1)
            ~update:(Update.reset x);
        ]
    | None -> []
  in
  let locations = List.init n_locs (fun i -> loc (Printf.sprintf "L%d" i)) in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"A" ~locations ~edges:a_edges ~initial:0);
  (match c with
  | Some ch ->
      Network.Builder.add_automaton b
        (Automaton.make ~name:"B" ~locations:[ loc "M" ]
           ~edges:[ edge 0 0 ~sync:(Automaton.Recv ch) ~update:bump ]
           ~initial:0)
  | None -> ());
  Network.Builder.build b

let gen_random_flow_net =
  let open QCheck2.Gen in
  let* n_locs = int_range 2 4 in
  let* hi = int_range 1 6 in
  let* init = int_range 0 hi in
  let* sync = bool in
  let* edges =
    list_size (int_range 3 6)
      (pair
         (pair (int_range 0 (n_locs - 1)) (int_range 0 (n_locs - 1)))
         (pair (int_range 0 3) (pair (int_range 0 3) (int_range 0 hi))))
  in
  return (build_random ~n_locs ~hi ~init ~sync ~edges)

let interval_sound net seed =
  let fa = Flow.analyze net in
  let g = Flow.global_ranges fa in
  let within ranges (env : int array) =
    let ok = ref true in
    Array.iteri
      (fun v x ->
        let lo, hi = ranges.(v) in
        if x < lo || x > hi then ok := false)
      env;
    !ok
  in
  let walk = Concrete.random_walk net ~seed ~steps:50 ~max_step_delay:4 in
  List.for_all
    (fun (_, (c : Concrete.t)) ->
      within g c.Concrete.env
      && Array.for_all (fun i -> i)
           (Array.init
              (Array.length net.Network.automata)
              (fun i ->
                Flow.reachable fa i c.Concrete.locs.(i)
                &&
                match Flow.env_at fa i c.Concrete.locs.(i) with
                | None -> false
                | Some env -> within env c.Concrete.env)))
    walk

let test_intervals_sound =
  QCheck2.Test.make ~count:80
    ~name:"concrete valuations lie inside inferred intervals"
    QCheck2.Gen.(pair gen_random_flow_net (int_range 1 10_000))
    (fun (net, seed) -> interval_sound net seed)

(* ------------------------------------------------------------------ *)
(* Flow-refined L/U tables: a pointwise min against the builder's
   per-location tables, with the global floors untouched.              *)
(* ------------------------------------------------------------------ *)

let pointwise_le a b =
  Array.length a = Array.length b
  && Array.for_all2
       (Array.for_all2 (fun row row' ->
            Array.length row = Array.length row'
            && Array.for_all2 ( <= ) row row'))
       a b

(* A: L0 --(x >= 100 && v >= 5)--> L1, L0 --(x >= 2)--> L2 with v never
   written, so the first edge is flow-dead.  The builder's L bound of x
   at L0 counts the dead guard's 100; the refined bound keeps only 2. *)
let dead_guard_net () =
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  let v = Network.Builder.int_var b "v" ~lo:0 ~hi:3 ~init:0 in
  let dead =
    Guard.conj (Guard.clock_ge x 100) (Guard.data Expr.(Cmp (Ge, Var v, Int 5)))
  in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"A"
       ~locations:[ loc "L0"; loc "L1"; loc "L2" ]
       ~edges:[ edge 0 1 ~guard:dead; edge 0 2 ~guard:(Guard.clock_ge x 2) ]
       ~initial:0);
  (Network.Builder.build b, x)

let check_refinement_contract name net =
  let refined = Flow.refine_network net in
  Alcotest.(check bool)
    (name ^ ": refined L table below the builder's")
    true
    (pointwise_le refined.Network.lloc net.Network.lloc);
  Alcotest.(check bool)
    (name ^ ": refined U table below the builder's")
    true
    (pointwise_le refined.Network.uloc net.Network.uloc);
  Alcotest.(check (array int)) (name ^ ": lbase") net.Network.lbase
    refined.Network.lbase;
  Alcotest.(check (array int)) (name ^ ": ubase") net.Network.ubase
    refined.Network.ubase

let test_refined_lu_tightens () =
  let net, x = dead_guard_net () in
  Alcotest.(check int) "builder L of x at A.L0" 100 net.Network.lloc.(0).(0).(x);
  let refined = Flow.refine_network net in
  Alcotest.(check int) "refined L of x at A.L0" 2
    refined.Network.lloc.(0).(0).(x);
  check_refinement_contract "dead-guard" net;
  List.iter
    (fun file ->
      let path =
        match
          List.find_opt Sys.file_exists
            [ "../examples/models/" ^ file; "examples/models/" ^ file ]
        with
        | Some p -> p
        | None -> Alcotest.failf "%s not found" file
      in
      check_refinement_contract file (E.load_file path).E.net)
    [ "fischer.ta"; "train_gate.ta"; "two_phase.ta" ]

let () =
  Alcotest.run "flow"
    [
      ( "semantic-lint",
        [
          Alcotest.test_case "demo model fires the semantic passes" `Quick
            test_demo_semantic_passes;
          Alcotest.test_case "demo model intervals" `Quick test_demo_intervals;
        ] );
      ( "soundness",
        [ QCheck_alcotest.to_alcotest test_intervals_sound ] );
      ( "refined-lu-contract",
        [
          Alcotest.test_case "refinement drops dead-guard constants" `Quick
            test_refined_lu_tightens;
        ] );
    ]

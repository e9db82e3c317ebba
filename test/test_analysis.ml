(* Static-analysis tests: one minimal triggering model per lint pass,
   clean-baseline checks over the generated case-study networks, the
   shipped example models and random automata. *)

open Ita_ta
module D = Ita_analysis.Diagnostic
module Lint = Ita_analysis.Lint
module E = Ita_tafmt.Elaborate
module R = Ita_casestudy.Radionav
open Ita_core

let loc = Models.loc
let edge = Models.edge

let check_pass ?(severity : D.severity option) name pass findings =
  match D.by_pass pass findings with
  | [] -> Alcotest.failf "%s: expected a %s finding" name (D.pass_name pass)
  | d :: _ -> (
      match severity with
      | None -> ()
      | Some s ->
          Alcotest.(check string)
            (name ^ " severity") (D.severity_name s)
            (D.severity_name d.D.severity))

let check_no_pass name pass findings =
  if D.by_pass pass findings <> [] then
    Alcotest.failf "%s: unexpected %s finding" name (D.pass_name pass)

(* ---- unused-clock ---- *)

let test_unused_clock () =
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P" ~locations:[ loc "L0" ] ~edges:[] ~initial:0);
  let net = Network.Builder.build b in
  check_pass ~severity:D.Warning "unused" D.Unused_clock (Lint.run net);
  (* a clock observed from outside (a WCRT sup query) is exempt *)
  check_no_pass "observed" D.Unused_clock (Lint.run ~observed_clocks:[ x ] net)

(* ---- never-reset-clock ---- *)

let test_never_reset_clock () =
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:[ loc "L0"; loc "L1" ]
       ~edges:[ edge 0 1 ~guard:(Guard.clock_ge x 1) ]
       ~initial:0);
  let net = Network.Builder.build b in
  check_pass ~severity:D.Info "never-reset" D.Never_reset_clock (Lint.run net);
  check_no_pass "observed" D.Never_reset_clock
    (Lint.run ~observed_clocks:[ x ] net)

(* ---- dead-var ---- *)

let test_dead_var () =
  let b = Network.Builder.create () in
  let v = Network.Builder.int_var b "v" ~lo:0 ~hi:3 ~init:0 in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:[ loc "L0"; loc "L1" ]
       ~edges:[ edge 0 1 ~update:(Update.set v (Expr.Int 1)) ]
       ~initial:0);
  let net = Network.Builder.build b in
  check_pass ~severity:D.Warning "dead" D.Dead_var (Lint.run net);
  check_no_pass "observed" D.Dead_var (Lint.run ~observed_vars:[ v ] net)

(* ---- range-overflow ---- *)

let overflow_net rhs =
  let b = Network.Builder.create () in
  let v = Network.Builder.int_var b "v" ~lo:0 ~hi:3 ~init:0 in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:[ loc "L0"; loc "L1" ]
       ~edges:
         [
           edge 0 1
             ~guard:(Guard.data Expr.(Cmp (Ge, Var v, Int 0)))
             ~update:(Update.set v (rhs v));
         ]
       ~initial:0);
  Network.Builder.build b

let test_range_overflow () =
  (* v := 5 with v : [0, 3] can never stay in range: an error *)
  let definite = overflow_net (fun _ -> Expr.Int 5) in
  check_pass ~severity:D.Error "definite" D.Range_overflow (Lint.run definite);
  (* v := v + 1 straight from the initial valuation: the interval
     analysis knows v = 0 there, so the update provably stays in
     range — the old declared-range scan used to flag this *)
  let tightened = overflow_net (fun v -> Expr.(Add (Var v, Int 1))) in
  check_no_pass "flow-tightened" D.Range_overflow (Lint.run tightened);
  (* v := v + 1 on a loop: v really does range over [0, 3] at the
     source, so the enclosure [1, 4] is possibly out of range *)
  let possible =
    let b = Network.Builder.create () in
    let v = Network.Builder.int_var b "v" ~lo:0 ~hi:3 ~init:0 in
    Network.Builder.add_automaton b
      (Automaton.make ~name:"P" ~locations:[ loc "L0" ]
         ~edges:
           [ edge 0 0 ~update:(Update.set v Expr.(Add (Var v, Int 1))) ]
         ~initial:0);
    Network.Builder.build b
  in
  check_pass ~severity:D.Info "possible" D.Range_overflow (Lint.run possible);
  (* v := v with v : [0, 3] stays in range *)
  let clean = overflow_net (fun v -> Expr.Var v) in
  check_no_pass "clean" D.Range_overflow (Lint.run clean)

(* ---- unreachable-location ---- *)

let test_unreachable_location () =
  let b = Network.Builder.create () in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:[ loc "L0"; loc "ORPHAN" ]
       ~edges:[] ~initial:0);
  let net = Network.Builder.build b in
  check_pass ~severity:D.Warning "orphan" D.Unreachable_location (Lint.run net)

(* ---- invariant-misuse ---- *)

let test_invariant_misuse () =
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:
         [ loc "L0" ~invariant:(Guard.clock_ge x 2); loc "L1" ]
       ~edges:[ edge 0 1 ~update:(Update.reset x) ]
       ~initial:0);
  let net = Network.Builder.build b in
  check_pass "lower-bound invariant" D.Invariant_misuse (Lint.run net)

(* ---- urgent-clock-guard ---- *)

let test_urgent_clock_guard () =
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  let c = Network.Builder.channel b "c" Channel.Binary ~urgent:true in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"S"
       ~locations:[ loc "L0"; loc "L1" ]
       ~edges:
         [
           edge 0 1 ~sync:(Automaton.Send c) ~guard:(Guard.clock_ge x 1)
             ~update:(Update.reset x);
         ]
       ~initial:0);
  Network.Builder.add_automaton b
    (Automaton.make ~name:"R"
       ~locations:[ loc "M0"; loc "M1" ]
       ~edges:[ edge 0 1 ~sync:(Automaton.Recv c) ]
       ~initial:0);
  (* Builder.build rejects this model; the lint pass is for networks
     elaborated with the validation off *)
  let net = Network.Builder.build ~validate:false b in
  check_pass ~severity:D.Error "urgent guard" D.Urgent_clock_guard
    (Lint.run net)

(* ---- channel-peer ---- *)

let test_channel_peer () =
  let b = Network.Builder.create () in
  let c = Network.Builder.channel b "c" Channel.Binary ~urgent:false in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"S"
       ~locations:[ loc "L0"; loc "L1" ]
       ~edges:[ edge 0 1 ~sync:(Automaton.Send c) ]
       ~initial:0);
  let net = Network.Builder.build b in
  check_pass "sender without receiver" D.Channel_peer (Lint.run net);
  (* the hurry! idiom: a broadcast send with no receivers is clean *)
  let b = Network.Builder.create () in
  let h = Network.Builder.channel b "hurry" Channel.Broadcast ~urgent:true in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"S"
       ~locations:[ loc "L0"; loc "L1" ]
       ~edges:[ edge 0 1 ~sync:(Automaton.Send h) ]
       ~initial:0);
  let net = Network.Builder.build b in
  check_no_pass "hurry idiom" D.Channel_peer (Lint.run net)

(* ---- committed-cycle ---- *)

let test_committed_cycle () =
  let b = Network.Builder.create () in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:
         [
           loc "L0" ~kind:Automaton.Committed;
           loc "L1" ~kind:Automaton.Committed;
         ]
       ~edges:[ edge 0 1; edge 1 0 ]
       ~initial:0);
  let net = Network.Builder.build b in
  check_pass ~severity:D.Warning "committed loop" D.Committed_cycle
    (Lint.run net)

(* ---- zeno-cycle ---- *)

let test_zeno_cycle () =
  let b = Network.Builder.create () in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:[ loc "L0"; loc "L1" ]
       ~edges:[ edge 0 1; edge 1 0 ]
       ~initial:0);
  let free = Network.Builder.build b in
  check_pass ~severity:D.Warning "free cycle" D.Zeno_cycle (Lint.run free);
  (* a synchronizing cycle may be paced by its partner: only Info *)
  let b = Network.Builder.create () in
  let c = Network.Builder.channel b "c" Channel.Broadcast ~urgent:false in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:[ loc "L0"; loc "L1" ]
       ~edges:[ edge 0 1 ~sync:(Automaton.Send c); edge 1 0 ]
       ~initial:0);
  let synced = Network.Builder.build b in
  check_pass ~severity:D.Info "synced cycle" D.Zeno_cycle (Lint.run synced);
  (* a reset plus a positive lower bound on the same clock paces the
     cycle: clean *)
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:[ loc "L0"; loc "L1" ]
       ~edges:
         [
           edge 0 1 ~guard:(Guard.clock_ge x 1) ~update:(Update.reset x);
           edge 1 0;
         ]
       ~initial:0);
  let paced = Network.Builder.build b in
  check_no_pass "paced cycle" D.Zeno_cycle (Lint.run paced)

(* ---- merged-query-clock ---- *)

let test_merged_query_clock () =
  (* x and y are reset together on every edge that resets either, so
     CoiMerge folds y (the larger index) into x *)
  let quasi ~split =
    let b = Network.Builder.create () in
    let x = Network.Builder.clock b "x" in
    let y = Network.Builder.clock b "y" in
    let edges =
      [
        edge 0 1 ~update:(Update.reset x @ Update.reset y);
        edge 1 0 ~guard:(Guard.clock_ge x 2);
      ]
    in
    let edges =
      (* the extra x-only reset gives the clocks distinct signatures *)
      if split then edges @ [ edge 1 0 ~update:(Update.reset x) ] else edges
    in
    Network.Builder.add_automaton b
      (Automaton.make ~name:"P"
         ~locations:[ loc "L0"; loc "L1" ]
         ~edges ~initial:0);
    (Network.Builder.build b, y)
  in
  let net, y = quasi ~split:false in
  check_pass ~severity:D.Warning "merged observed clock" D.Merged_query_clock
    (Lint.run ~observed_clocks:[ y ] net);
  (* without a query clock there is nothing to warn about *)
  check_no_pass "no observation" D.Merged_query_clock (Lint.run net);
  (* a pinned clock is never merged *)
  check_no_pass "pinned"  D.Merged_query_clock
    (Lint.run ~observed_clocks:[ y ] (Network.bump_clock_bound net y 8));
  (* distinct reset signatures: no quasi-equality, no warning *)
  let net, y = quasi ~split:true in
  check_no_pass "distinct signatures" D.Merged_query_clock
    (Lint.run ~observed_clocks:[ y ] net)

(* ------------------------------------------------------------------ *)
(* Clean baselines: the generated case study and the example models    *)
(* ------------------------------------------------------------------ *)

let worst_name findings =
  match D.worst findings with
  | None -> "clean"
  | Some s -> D.severity_name s

let test_generated_baseline () =
  List.iter
    (fun combo ->
      List.iter
        (fun col ->
          let sys = R.system combo col in
          let gen = Gen.generate sys in
          let findings = Lint.run gen.Gen.net in
          let bad =
            List.filter
              (fun (d : D.t) ->
                D.compare_severity d.D.severity D.Warning >= 0)
              findings
          in
          if bad <> [] then
            Alcotest.failf "%s [%s]: %d findings at warning+, worst %s"
              (R.combo_name combo) (R.column_name col) (List.length bad)
              (worst_name findings))
        R.columns)
    R.combos

let example_files = [ "fischer.ta"; "train_gate.ta"; "two_phase.ta" ]

let test_examples_baseline () =
  List.iter
    (fun file ->
      let { E.net; queries; _ } = E.load_file (Models.model_path file) in
      let { Ita_analysis.Slice.g_clocks; g_vars; _ } =
        Ita_mc.Check.observed queries
      in
      let findings =
        Lint.run ~observed_clocks:g_clocks ~observed_vars:g_vars net
      in
      let bad =
        List.filter
          (fun (d : D.t) -> D.compare_severity d.D.severity D.Warning >= 0)
          findings
      in
      if bad <> [] then
        Alcotest.failf "%s: %d findings at warning+, worst %s" file
          (List.length bad) (worst_name findings))
    example_files

(* Lint never crashes on random nets: total by construction *)
let test_lint_total_random =
  QCheck2.Test.make ~count:60 ~name:"lint is total on random automata"
    Models.gen_random_net
    (fun (net, _) ->
      let findings = Lint.run net in
      ignore (Format.asprintf "%a" (Lint.pp_report net) findings);
      true)

(* ------------------------------------------------------------------ *)
(* Satellite: golden file pinning the [lint --json] schema — the exact
   bytes [tamc lint --json flow_demo.ta] prints, positions and query-
   derived observations included.  A schema change (new field, renamed
   pass, different ordering) must consciously regenerate
   lint_golden.json.                                                   *)

let fixture name =
  match List.find_opt Sys.file_exists [ name; "../test/" ^ name ] with
  | Some p -> p
  | None -> Alcotest.failf "fixture %s not found" name

let test_lint_json_golden () =
  let { E.net; queries; srcmap } =
    E.load_file ~validate:false (fixture "flow_demo.ta")
  in
  (* what the model's own queries watch feeds the cone pass and the
     unused/never-reset exemptions, as in tamc lint *)
  let { Ita_analysis.Slice.g_comps; g_clocks; g_vars } =
    Ita_mc.Check.observed queries
  in
  let findings =
    Lint.run ~observed_comps:g_comps ~observed_clocks:g_clocks
      ~observed_vars:g_vars net
  in
  let site_pos = function
    | D.Automaton_site i -> Some srcmap.E.proc_pos.(i)
    | D.Location_site { comp; loc } -> Some srcmap.E.loc_pos.(comp).(loc)
    | D.Edge_site { comp; edge } -> Some srcmap.E.edge_pos.(comp).(edge)
    | D.Network_site | D.Clock_site _ | D.Var_site _ | D.Channel_site _ -> None
  in
  let resolve site =
    Option.map
      (fun { Ita_tafmt.Ast.line; col } ->
        Printf.sprintf "flow_demo.ta:%d:%d" line col)
      (site_pos site)
  in
  let pos site =
    Option.map
      (fun { Ita_tafmt.Ast.line; col } -> (line, col))
      (site_pos site)
  in
  let json = Lint.to_json ~resolve ~pos net findings in
  let golden =
    In_channel.with_open_bin (fixture "lint_golden.json")
      In_channel.input_all
  in
  Alcotest.(check string) "lint --json bytes" golden json

let () =
  Alcotest.run "analysis"
    [
      ( "golden",
        [ Alcotest.test_case "lint --json schema" `Quick test_lint_json_golden ]
      );
      ( "passes",
        [
          Alcotest.test_case "unused clock" `Quick test_unused_clock;
          Alcotest.test_case "never-reset clock" `Quick
            test_never_reset_clock;
          Alcotest.test_case "dead var" `Quick test_dead_var;
          Alcotest.test_case "range overflow" `Quick test_range_overflow;
          Alcotest.test_case "unreachable location" `Quick
            test_unreachable_location;
          Alcotest.test_case "invariant misuse" `Quick test_invariant_misuse;
          Alcotest.test_case "urgent clock guard" `Quick
            test_urgent_clock_guard;
          Alcotest.test_case "channel peer" `Quick test_channel_peer;
          Alcotest.test_case "committed cycle" `Quick test_committed_cycle;
          Alcotest.test_case "zeno cycle" `Quick test_zeno_cycle;
          Alcotest.test_case "merged query clock" `Quick
            test_merged_query_clock;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "generated networks clean" `Quick
            test_generated_baseline;
          Alcotest.test_case "example models clean" `Quick
            test_examples_baseline;
          QCheck_alcotest.to_alcotest test_lint_total_random;
        ] );
    ]

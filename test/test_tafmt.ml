(* Tests for the textual .ta format: lexer, parser, elaboration and
   checking parsed models end to end. *)

module L = Ita_tafmt.Lexer
module P = Ita_tafmt.Parser
module E = Ita_tafmt.Elaborate
module Ast = Ita_tafmt.Ast
open Ita_ta

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lexer_tokens () =
  let lx = L.of_string "clock x // comment\n  edge A -> B when x <= 5" in
  let toks = List.init 9 (fun _ -> L.next lx) in
  Alcotest.(check bool) "token stream" true
    (toks
    = [
        L.KW "clock";
        L.IDENT "x";
        L.KW "edge";
        L.IDENT "A";
        L.PUNCT "->";
        L.IDENT "B";
        L.KW "when";
        L.IDENT "x";
        L.PUNCT "<=";
      ])

let test_lexer_numbers () =
  let lx = L.of_string "42 -7" in
  Alcotest.(check bool) "int" true (L.next lx = L.INT 42);
  Alcotest.(check bool) "negative int" true (L.next lx = L.INT (-7));
  Alcotest.(check bool) "eof" true (L.next lx = L.EOF)

let test_lexer_error () =
  let lx = L.of_string "x @ y" in
  ignore (L.next lx);
  match L.next lx with
  | _ -> Alcotest.fail "expected lex error"
  | exception L.Lex_error { line = 1; _ } -> ()

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let two_phase_src =
  {|
clock x y
process P {
  init loc L0
  loc L1 inv x <= 4
  committed loc L2
  edge L0 -> L1 when x >= 1 && x <= 2 do x := 0
  edge L1 -> L2 when x == 4
}
query reach P.L2 && y >= 6
query sup y at P.L2
|}

let test_parse_structure () =
  let decls = P.parse_string two_phase_src in
  Alcotest.(check int) "four declarations" 4 (List.length decls);
  match decls with
  | [ Ast.Clocks [ "x"; "y" ]; Ast.Process p; Ast.Query (Ast.Reach _);
      Ast.Query (Ast.Sup _) ] ->
      Alcotest.(check int) "locations" 3 (List.length p.Ast.locs);
      Alcotest.(check int) "edges" 2 (List.length p.Ast.edges)
  | _ -> Alcotest.fail "unexpected declaration shapes"

let test_parse_expressions () =
  let decls = P.parse_string "var n 0 9 0\nprocess P { init loc A edge A -> A when n * 2 + 1 == 3 && !(n > 4) do n := n + 1 }" in
  match decls with
  | [ Ast.Var _; Ast.Process { Ast.edges = [ e ]; _ } ] ->
      Alcotest.(check bool) "guard parsed" true (e.Ast.edge_guard <> None);
      Alcotest.(check int) "one update" 1 (List.length e.Ast.edge_updates)
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_error_line () =
  match P.parse_string "clock x\nprocess {" with
  | _ -> Alcotest.fail "expected error"
  | exception P.Parse_error { line = 2; _ } -> ()
  | exception P.Parse_error { line; _ } ->
      Alcotest.failf "error on wrong line %d" line

(* ------------------------------------------------------------------ *)
(* Elaboration and end-to-end checking                                 *)
(* ------------------------------------------------------------------ *)

let test_elaborate_two_phase () =
  let { E.net; queries; _ } = E.elaborate (P.parse_string two_phase_src) in
  Alcotest.(check int) "two clocks" 2 (Network.n_clocks net);
  Alcotest.(check int) "one component" 1 (Network.n_components net);
  match queries with
  | [ E.Reach_q q6; E.Sup_q { clock; at } ] -> (
      (match Ita_mc.Reach.reach net q6 with
      | Ita_mc.Reach.Reachable _ -> ()
      | _ -> Alcotest.fail "y >= 6 should be reachable");
      match Ita_mc.Wcrt.sup net ~at ~clock with
      | Ita_mc.Wcrt.Sup { value; _ } -> Alcotest.(check int) "sup" 6 value
      | _ -> Alcotest.fail "sup should be found")
  | _ -> Alcotest.fail "expected two queries"

let test_elaborate_sync_and_urgent () =
  let src =
    {|
clock z
var flag 0 1 0
urgent broadcast chan hurry
process U {
  init loc L0
  loc L1
  edge L0 -> L1 when flag == 1 sync hurry!
}
process T {
  init loc M0 inv z <= 5
  loc M1
  edge M0 -> M1 when z == 5 do flag := 1
}
query reach U.L0 && T.M1 && z > 5
|}
  in
  let { E.net; queries; _ } = E.elaborate (P.parse_string src) in
  match queries with
  | [ E.Reach_q q ] -> (
      match Ita_mc.Reach.reach net q with
      | Ita_mc.Reach.Unreachable _ -> ()
      | _ -> Alcotest.fail "urgency must pin z at 5")
  | _ -> Alcotest.fail "expected one query"

let test_elaborate_errors () =
  let expect_err src =
    match E.elaborate (P.parse_string src) with
    | _ -> Alcotest.fail "expected Elab_error"
    | exception E.Elab_error _ -> ()
  in
  (* unknown identifier *)
  expect_err "process P { init loc A edge A -> A when nope == 1 }";
  (* clock used as integer *)
  expect_err "clock x\nvar n 0 9 0\nprocess P { init loc A edge A -> A do n := x }";
  (* clock compared to clock *)
  expect_err "clock x y\nprocess P { init loc A edge A -> A when x <= y }";
  (* clock under disjunction *)
  expect_err
    "clock x\nvar n 0 9 0\nprocess P { init loc A edge A -> A when x <= 3 || n == 1 }";
  (* two init locations *)
  expect_err "process P { init loc A init loc B }"

(* Clock constants must fit the zone encoding: beyond
   Bound.max_constant a guard or invariant used to wrap around and turn
   a reachable goal unreachable. *)
let constant_model inv guard =
  Printf.sprintf
    "clock x\nprocess P {\n  init loc a inv x <= %d\n  loc b\n  edge a -> b \
     when x >= %d\n}\nquery reach P.b\n"
    inv guard

let test_constant_range () =
  let m = Ita_dbm.Bound.max_constant in
  (match
     E.elaborate (P.parse_string (constant_model max_int (max_int - 903)))
   with
  | _ -> Alcotest.fail "a 2^62 constant must be rejected"
  | exception E.Elab_error { pos; _ } ->
      Alcotest.(check (option (pair int int)))
        "rejected at the invariant's location" (Some (3, 8))
        (Option.map (fun (p : Ast.pos) -> (p.Ast.line, p.Ast.col)) pos));
  (match E.elaborate (P.parse_string (constant_model (m + 1) 0)) with
  | _ -> Alcotest.fail "max_constant + 1 must be rejected"
  | exception E.Elab_error { pos = Some _; _ } -> ());
  (match
     E.elaborate
       (P.parse_string
          "clock x\nprocess P { init loc a }\n\
           query reach P.a && x >= -1152921504606846976\n")
   with
  | _ -> Alcotest.fail "an out-of-range query constant must be rejected"
  | exception E.Elab_error { pos = None; _ } -> ());
  (* the largest allowed constant is exact under every abstraction *)
  let { E.net; queries; _ } =
    E.elaborate (P.parse_string (constant_model m (m - 903)))
  in
  let q = match queries with [ E.Reach_q q ] -> q | _ -> assert false in
  List.iter
    (fun abstraction ->
      List.iter
        (fun domains ->
          match Ita_mc.Reach.reach ~abstraction ~domains net q with
          | Ita_mc.Reach.Reachable _ -> ()
          | _ -> Alcotest.fail "P.b is reachable at the largest constant")
        [ 1; 4 ])
    [ Ita_mc.Reach.ExtraLU; Ita_mc.Reach.LuSim ];
  (* networks built without the .ta front end are checked too *)
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:
         [ { Automaton.loc_name = "a"; invariant = Guard.clock_le x (m + 1);
             kind = Automaton.Normal } ]
       ~edges:[] ~initial:0);
  (match Network.Builder.build b with
  | _ -> Alcotest.fail "the builder must reject max_constant + 1"
  | exception Network.Invalid_model _ -> ());
  match Network.bump_clock_bound net x (m + 1) with
  | _ -> Alcotest.fail "bump_clock_bound must reject max_constant + 1"
  | exception Network.Invalid_model _ -> ()

(* An update leaving its declared range surfaces as Update.Out_of_range
   naming the variable in the original network's index space, even when
   slicing removed an earlier variable. *)
let test_out_of_range_unmapped () =
  let src =
    {|
clock x
var u 0 1 0
var v -5 5 0
process Q {
  init loc c
  loc d
  edge c -> d do u := 1
}
process P {
  init loc a
  loc b
  edge a -> b do v := v + 1000
}
query reach P.b
query sup x at P.b
|}
  in
  let { E.net; queries; _ } = E.elaborate (P.parse_string src) in
  let v = Network.var_index net "v" in
  let expect what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Update.Out_of_range" what
    | exception Update.Out_of_range { var; value } ->
        Alcotest.(check (pair int int)) what (v, 1000) (var, value)
  in
  List.iter
    (fun slicing ->
      match queries with
      | [ E.Reach_q q; E.Sup_q { clock; at } ] ->
          expect "reach" (fun () -> ignore (Ita_mc.Reach.reach ~slicing net q));
          expect "sup" (fun () ->
              ignore (Ita_mc.Wcrt.sup ~slicing net ~at ~clock))
      | _ -> Alcotest.fail "expected a reach and a sup query")
    [ Ita_mc.Reach.Off; Ita_mc.Reach.CoiMerge ]

(* the protocols' own queries, in file order, through the checker tamc
   check runs *)
let test_fischer () =
  (* mutual exclusion holds, both processes reach their critical
     section, and the protocol is deadlock-free *)
  Alcotest.(check (list string))
    "fischer verdicts"
    [ "unreachable"; "reachable"; "reachable"; "deadlock-free" ]
    (Models.example_verdicts "fischer.ta")

let test_train_gate () =
  (* the train is never in the crossing unless the gate is down, it
     does cross, and the system is deadlock-free *)
  Alcotest.(check (list string))
    "train gate verdicts"
    [ "unreachable"; "unreachable"; "reachable"; "deadlock-free" ]
    (Models.example_verdicts "train_gate.ta")

let test_load_example_file () =
  (* the example shipped in examples/models must stay green *)
  let path = Models.model_path "two_phase.ta" in
  begin
    let { E.net; queries; _ } = E.load_file path in
    Alcotest.(check int) "three queries" 3 (List.length queries);
    Alcotest.(check int) "one component" 1 (Network.n_components net)
  end

let () =
  Alcotest.run "tafmt"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "numbers" `Quick test_lexer_numbers;
          Alcotest.test_case "errors" `Quick test_lexer_error;
        ] );
      ( "parser",
        [
          Alcotest.test_case "structure" `Quick test_parse_structure;
          Alcotest.test_case "expressions" `Quick test_parse_expressions;
          Alcotest.test_case "error line" `Quick test_parse_error_line;
        ] );
      ( "elaborate",
        [
          Alcotest.test_case "two-phase end to end" `Quick
            test_elaborate_two_phase;
          Alcotest.test_case "sync and urgency" `Quick
            test_elaborate_sync_and_urgent;
          Alcotest.test_case "errors" `Quick test_elaborate_errors;
          Alcotest.test_case "clock constant range" `Quick test_constant_range;
          Alcotest.test_case "out-of-range update names the variable" `Quick
            test_out_of_range_unmapped;
          Alcotest.test_case "example file" `Quick test_load_example_file;
          Alcotest.test_case "fischer protocol" `Quick test_fischer;
          Alcotest.test_case "train gate" `Quick test_train_gate;
        ] );
    ]

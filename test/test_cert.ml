(* Certificate tests: every verdict the engine emits must come with a
   certificate the independent checker accepts — across the full
   abstraction x slicing x domain-count matrix, on the model zoo, the
   shipped example files and the radionav case study.  Invariant
   certificates must additionally be byte-identical across domain
   counts, and programmatically corrupted certificates must be
   rejected with the right obligation named. *)

open Ita_ta
open Ita_mc
module Dbm = Ita_dbm.Dbm
module Cert = Ita_cert.Cert
module R = Ita_casestudy.Radionav

(* ------------------------------------------------------------------ *)
(* Models (the test_par zoo, including its wide-frontier stressor)     *)
(* ------------------------------------------------------------------ *)

let wide_frontier () =
  let b = Network.Builder.create () in
  let clocks =
    Array.init 3 (fun i -> Network.Builder.clock b (Printf.sprintf "c%d" i))
  in
  Array.iteri
    (fun i x ->
      let locations =
        [
          Models.loc "A";
          Models.loc "B" ~invariant:(Guard.clock_le x 5);
          Models.loc "C";
        ]
      in
      let edges =
        [
          Models.edge 0 1 ~update:(Update.reset x);
          Models.edge 0 2 ~guard:(Guard.clock_ge x 2) ~update:(Update.reset x);
          Models.edge 1 0 ~guard:(Guard.clock_ge x 3);
          Models.edge 2 0 ~update:(Update.reset x);
        ]
      in
      Network.Builder.add_automaton b
        (Automaton.make ~name:(Printf.sprintf "P%d" i) ~locations ~edges
           ~initial:0))
    clocks;
  Network.Builder.build b

(* Two certificate regressions of CoiMerge slicing.  [dead_invariant]:
   only the invariant of the flow-unreachable [L1] tests [x], so the
   slice must keep [x] or the checker rejects its mask.
   [merged_guard]: in a query on [z], the never-reset [x] and [y] are
   merged, which disables the first self-loop and drops its constants
   from the flow-refined bounds, so the checker must know the merge to
   accept the certificate. *)
let dead_invariant () =
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  let y = Network.Builder.clock b "y" in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:
         [
           Models.loc "L0" ~invariant:(Guard.clock_le y 5);
           Models.loc "L1" ~invariant:(Guard.clock_le x 3);
         ]
       ~edges:
         [
           Models.edge 0 0 ~guard:(Guard.clock_ge y 5) ~update:(Update.reset y);
           Models.edge 0 1 ~guard:(Guard.clock_rel y Guard.Lt (Expr.Int 0));
         ]
       ~initial:0);
  Network.Builder.build b

let merged_guard () =
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  let y = Network.Builder.clock b "y" in
  let z = Network.Builder.clock b "z" in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P"
       ~locations:[ Models.loc "L0" ~invariant:(Guard.clock_le z 5) ]
       ~edges:
         [
           Models.edge 0 0
             ~guard:
               (Guard.conj
                  (Guard.clock_rel x Guard.Lt (Expr.Int 1))
                  (Guard.clock_ge y 1));
           Models.edge 0 0 ~guard:(Guard.clock_ge z 5) ~update:(Update.reset z);
         ]
       ~initial:0);
  Network.Builder.build b

let zoo () =
  [
    ("two-phase", (let net, _, _ = Models.two_phase () in net));
    ("urgent-gate", fst (Models.urgent_gate ()));
    ("committed-gate", fst (Models.committed_gate ()));
    ("handshake", fst (Models.handshake ()));
    ("broadcast", Models.broadcast_pair ());
    ("wide-frontier", wide_frontier ());
    ("dead-invariant", dead_invariant ());
    ("merged-guard", merged_guard ());
  ]

(* ------------------------------------------------------------------ *)
(* Emission: the certificate [tamc check --cert] writes for a reach
   query, and a sup certificate at the small ceilings the zoo, random
   and radionav nets need ([Check.run] keeps Wcrt's defaults)          *)
(* ------------------------------------------------------------------ *)

(* every reach verdict found without a budget must come certified *)
let reach_certified ?abstraction ?slicing ?domains net q =
  match
    Check.run ?abstraction ?slicing ?domains ~cert:true ~index:0 net
      (Check.Reach_q q)
  with
  | _, Ok qc -> qc
  | _, Error why -> Alcotest.failf "reach verdict not certified: %s" why

let sup_cert ?(abstraction = Reach.ExtraLU) ?(slicing = Reach.Off)
    ?(domains = 1) ?(initial_ceiling = 64) ?(max_ceiling = 256) net ~at ~clock
    =
  let snap = ref None in
  match
    Wcrt.sup ~abstraction ~slicing ~domains ~initial_ceiling ~max_ceiling
      ~snap:(fun s -> snap := Some s)
      net ~at ~clock
  with
  | Wcrt.Sup { value; kind; _ } -> (
      match !snap with
      | Some s ->
          Some
            (Cert_emit.of_snapshot ~index:0
               ~verdict:(Cert.Sup { clock; value; kind })
               s)
      | None -> Alcotest.fail "sup verdict fired no snapshot")
  | Wcrt.Goal_unreachable _ | Wcrt.Sup_budget_exhausted _
  | Wcrt.Sup_unbounded _ ->
      None

(* serialize, re-parse, then hand to the independent checker: the
   whole pipeline a certificate travels through in production *)
let roundtrip_check name net ~goal qc =
  let c = Cert_emit.make net [ qc ] in
  match Cert.parse (Cert.to_string c) with
  | Error f ->
      Alcotest.failf "%s: roundtrip parse failed [%s] %s" name
        (Cert.obligation_name f.Cert.obligation)
        f.Cert.message
  | Ok c' -> (
      Alcotest.(check int)
        (name ^ ": fingerprint survives the roundtrip")
        c.Cert.fingerprint c'.Cert.fingerprint;
      match c'.Cert.queries with
      | [ qc' ] -> (
          match Cert.check net ~goal qc' with
          | Ok _ -> ()
          | Error f ->
              Alcotest.failf "%s: certificate REJECTED [%s] %s" name
                (Cert.obligation_name f.Cert.obligation)
                f.Cert.message)
      | l -> Alcotest.failf "%s: %d queries after roundtrip" name (List.length l))

let check_net_matrix cfg ~abstraction ~slicing ~domains (name, net) =
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
                roundtrip_check
                  (Printf.sprintf "%s %s: reach %s >= %d at %s.%s" cfg name
                     net.Network.clock_names.(x) c a.Automaton.name
                     l.Automaton.loc_name)
                  net
                  ~goal:(Cert_emit.goal_of_query q)
                  (reach_certified ~abstraction ~slicing ~domains net q))
              [ 1; 7 ];
            match sup_cert ~abstraction ~slicing ~domains net ~at ~clock:x with
            | None -> ()
            | Some qc ->
                roundtrip_check
                  (Printf.sprintf "%s %s: sup %s at %s.%s" cfg name
                     net.Network.clock_names.(x) a.Automaton.name
                     l.Automaton.loc_name)
                  net
                  ~goal:(Cert_emit.goal_of_query at)
                  qc
          done)
        a.Automaton.locations)
    net.Network.automata

let matrix f =
  List.iter
    (fun (aname, abstraction) ->
      List.iter
        (fun (sname, slicing) ->
          List.iter
            (fun domains ->
              f
                (Printf.sprintf "[%s/%s/d=%d]" aname sname domains)
                ~abstraction ~slicing ~domains)
            [ 1; 4 ])
        [ ("off", Reach.Off); ("coimerge", Reach.CoiMerge) ])
    [ ("extralu", Reach.ExtraLU); ("lusim", Reach.LuSim) ]

let test_zoo_matrix () =
  matrix (fun cfg ~abstraction ~slicing ~domains ->
      List.iter (check_net_matrix cfg ~abstraction ~slicing ~domains) (zoo ()))

(* ------------------------------------------------------------------ *)
(* The shipped example files, through the same pipeline                *)
(* ------------------------------------------------------------------ *)

let test_examples_matrix () =
  List.iter
    (fun file ->
      let reference =
        Models.example_verdicts ~abstraction:Reach.ExtraLU ~slicing:Reach.Off
          ~domains:1 file
      in
      matrix (fun cfg ~abstraction ~slicing ~domains ->
          let net, results =
            Models.check_example ~abstraction ~slicing ~domains ~cert:true file
          in
          Alcotest.(check (list string))
            (Printf.sprintf "%s %s: verdicts" cfg file)
            reference
            (List.map (fun (_, (v, _)) -> Models.verdict_key v) results);
          List.iteri
            (fun i (q, (verdict, certificate)) ->
              let name = Printf.sprintf "%s %s: query %d" cfg file i in
              match (certificate, verdict) with
              | Ok qc, _ ->
                  roundtrip_check name net ~goal:(Option.get (Check.goal q)) qc
              | ( Error why,
                  ( Check.Reach_result (Reach.Reachable _ | Reach.Unreachable _)
                  | Check.Sup_result (Wcrt.Sup _) ) ) ->
                  Alcotest.failf "%s: not certified: %s" name why
              | Error _, _ -> ())
            results))
    [ "two_phase.ta"; "train_gate.ta"; "fischer.ta"; "island_demo.ta" ]

(* ------------------------------------------------------------------ *)
(* Random automata: every verdict certifies under every abstraction x
   slicing combination, at 1 and 4 domains.  Unlike the differential
   tests this needs no second engine configuration as a reference: the
   checker replays naive reference semantics and re-derives every LU
   vector itself.                                                      *)
(* ------------------------------------------------------------------ *)

let certifies net ~goal = function
  | None -> true
  | Some qc -> Result.is_ok (Cert.check net ~goal qc)

let test_random_certificates =
  QCheck2.Test.make ~count:60
    ~print:(fun ((net, _), c) ->
      Format.asprintf "c = %d@.%a" c Pretty.pp_network net)
    ~name:"random automata: every verdict certifies"
    QCheck2.Gen.(pair Models.gen_random_net (int_range 0 10))
    (fun ((net, nl), c) ->
      List.for_all
        (fun (abstraction, slicing, domains) ->
          List.for_all
            (fun l ->
              let at = Query.at net ~comp:"P" ~loc:(Printf.sprintf "L%d" l) in
              let q = Query.with_guard at (Guard.clock_ge 2 c) in
              certifies net ~goal:(Cert_emit.goal_of_query q)
                (Some (reach_certified ~abstraction ~slicing ~domains net q))
              && List.for_all
                   (fun clock ->
                     certifies net ~goal:(Cert_emit.goal_of_query at)
                       (sup_cert ~abstraction ~slicing ~domains net ~at ~clock))
                   [ 1; 2 ])
            (List.init nl Fun.id))
        (List.concat_map
           (fun abstraction ->
             List.concat_map
               (fun slicing ->
                 List.map
                   (fun domains -> (abstraction, slicing, domains))
                   [ 1; 4 ])
               [ Reach.Off; Reach.CoiMerge ])
           [ Reach.ExtraLU; Reach.LuSim ]))

(* ------------------------------------------------------------------ *)
(* Radionav: certify the case study's WCRT across the matrix           *)
(* ------------------------------------------------------------------ *)

let test_radionav_certificates () =
  let sys = R.system R.Al_tmc R.Po in
  let scenario = Ita_core.Sysmodel.scenario sys "HandleTMC" in
  let req = Ita_core.Scenario.requirement scenario "TMC" in
  let gen = Ita_core.Gen.generate ~measure:("HandleTMC", req) sys in
  let net = gen.Ita_core.Gen.net in
  let obs = Option.get gen.Ita_core.Gen.observer in
  let at = obs.Ita_core.Gen.seen and clock = obs.Ita_core.Gen.obs_clock in
  matrix (fun cfg ~abstraction ~slicing ~domains ->
      match
        sup_cert ~abstraction ~slicing ~domains ~initial_ceiling:1_000_000
          ~max_ceiling:16_000_000 net ~at ~clock
      with
      | None -> Alcotest.failf "%s radionav: no sup verdict" cfg
      | Some qc ->
          roundtrip_check
            (Printf.sprintf "%s radionav al/po" cfg)
            net
            ~goal:(Cert_emit.goal_of_query at)
            qc);
  (* every po cell once more through Analyze.wcrt at its seeded
     ceiling, in the plainest configuration only: the full matrix on the
     ChangeVolume cells would cost minutes *)
  List.iter
    (fun (combo, scen, req, expected) ->
      let name =
        Printf.sprintf "radionav %s %s/%s" (R.combo_name combo) scen req
      in
      let r =
        Ita_core.Analyze.wcrt ~abstraction:Reach.ExtraLU ~slicing:Reach.Off
          ~domains:1 ~certify:true (R.system combo R.Po) ~scenario:scen
          ~requirement:req
      in
      (match r.Ita_core.Analyze.outcome with
      | Ita_core.Analyze.Exact_wcrt v -> Alcotest.(check int) name expected v
      | _ -> Alcotest.failf "%s: expected exact WCRT" name);
      match r.Ita_core.Analyze.certified with
      | Some (Ok _) -> ()
      | Some (Error f) ->
          Alcotest.failf "%s: certificate REJECTED [%s] %s" name
            (Cert.obligation_name f.Cert.obligation)
            f.Cert.message
      | None -> Alcotest.failf "%s: not certified" name)
    Models.radionav_po_cells

(* ------------------------------------------------------------------ *)
(* Byte stability: the same invariant certificate at any domain count  *)
(* ------------------------------------------------------------------ *)

let test_domain_count_byte_equality () =
  let net = wide_frontier () in
  let unreach =
    Query.with_guard (Query.at net ~comp:"P0" ~loc:"B") (Guard.clock_ge 1 7)
  in
  let at = Query.at net ~comp:"P0" ~loc:"B" in
  List.iter
    (fun (sname, slicing) ->
      let bytes domains =
        let qcs =
          [
            reach_certified ~slicing ~domains net unreach;
            Option.get (sup_cert ~slicing ~domains net ~at ~clock:1);
          ]
        in
        Cert.to_string (Cert_emit.make net qcs)
      in
      Alcotest.(check string)
        (Printf.sprintf "wide-frontier [%s]: 1-domain and 4-domain \
                         certificates are byte-identical"
           sname)
        (bytes 1) (bytes 4))
    [ ("off", Reach.Off); ("coimerge", Reach.CoiMerge) ]

(* ------------------------------------------------------------------ *)
(* Mutation rejection: corrupted certificates name the right
   obligation.  Base certificates are produced with slicing off so the
   mutations interact with the obligations, not with the mask.         *)
(* ------------------------------------------------------------------ *)

let initial_locs (net : Network.t) =
  Array.map (fun (a : Automaton.t) -> a.Automaton.initial) net.Network.automata

let expect_rejection name net ~goal qc expected =
  match Cert.check net ~goal qc with
  | Ok _ -> Alcotest.failf "%s: corrupted certificate was ACCEPTED" name
  | Error f ->
      Alcotest.(check string)
        (name ^ ": rejection names the right obligation")
        (Cert.obligation_name expected)
        (Cert.obligation_name f.Cert.obligation)

let wf_base () =
  let net = wide_frontier () in
  let unreach =
    Query.with_guard (Query.at net ~comp:"P0" ~loc:"B") (Guard.clock_ge 1 7)
  in
  let qc = reach_certified ~slicing:Reach.Off ~domains:1 net unreach in
  (net, unreach, qc)

let test_mutation_drop_state () =
  let net, unreach, qc = wf_base () in
  let init = initial_locs net in
  (* dropping any non-initial state breaks consecution: its stored
     predecessor's successor is no longer covered *)
  let victim =
    List.find
      (fun (e : Cert.entry) -> e.Cert.st.Semantics.locs <> init)
      qc.Cert.entries
  in
  let entries =
    List.filter (fun (e : Cert.entry) -> e != victim) qc.Cert.entries
  in
  expect_rejection "drop-state" net
    ~goal:(Cert_emit.goal_of_query unreach)
    { qc with Cert.entries }
    Cert.Consecution

let test_mutation_widen_zone () =
  let net, unreach, qc = wf_base () in
  (* widen a stored zone at a goal location past the goal guard: the
     invariant no longer implies unreachability *)
  let widened = ref false in
  let entries =
    List.map
      (fun (e : Cert.entry) ->
        if (not !widened) && e.Cert.st.Semantics.locs.(0) = 1 then begin
          widened := true;
          let z = Dbm.copy (List.hd e.Cert.zones) in
          Dbm.free z 1;
          { e with Cert.zones = z :: List.tl e.Cert.zones }
        end
        else e)
      qc.Cert.entries
  in
  Alcotest.(check bool) "widen-zone: found a goal-location entry" true
    !widened;
  expect_rejection "widen-zone" net
    ~goal:(Cert_emit.goal_of_query unreach)
    { qc with Cert.entries }
    Cert.Judgment

let test_mutation_shrink_lu () =
  let net, unreach, qc = wf_base () in
  (* location B carries the invariant c0 <= 5: an entry there whose U
     vector is shrunk below 5 can no longer dominate it, so the
     abstraction the certificate claims is unsound — consecution *)
  let shrunk = ref false in
  let entries =
    List.map
      (fun (e : Cert.entry) ->
        if (not !shrunk) && e.Cert.st.Semantics.locs.(0) = 1 then begin
          shrunk := true;
          let u = Array.copy e.Cert.u in
          u.(1) <- 0;
          { e with Cert.u = u }
        end
        else e)
      qc.Cert.entries
  in
  Alcotest.(check bool) "shrink-lu: found a B entry" true !shrunk;
  expect_rejection "shrink-lu" net
    ~goal:(Cert_emit.goal_of_query unreach)
    { qc with Cert.entries }
    Cert.Consecution

let test_mutation_swap_state () =
  let net, unreach, qc = wf_base () in
  let init = initial_locs net in
  (* exchange the discrete states of two stored entries (keeping
     zones and LU vectors in place): both antichains now sit under the
     wrong locations and consecution's coverage collapses *)
  let swappable =
    List.filter
      (fun (e : Cert.entry) ->
        e.Cert.st.Semantics.locs <> init && e.Cert.st.Semantics.locs.(0) <> 1)
      qc.Cert.entries
  in
  let a = List.nth swappable 0 and b = List.nth swappable 1 in
  let entries =
    List.map
      (fun (e : Cert.entry) ->
        if e == a then { a with Cert.st = b.Cert.st }
        else if e == b then { b with Cert.st = a.Cert.st }
        else e)
      qc.Cert.entries
  in
  expect_rejection "swap-state" net
    ~goal:(Cert_emit.goal_of_query unreach)
    { qc with Cert.entries }
    Cert.Consecution

let test_mutation_bogus_merge () =
  let net, unreach, qc = wf_base () in
  (* c0 and c1 are reset by different components: claiming them merged
     would let consecution skip transitions their equality disables *)
  expect_rejection "bogus-merge" net
    ~goal:(Cert_emit.goal_of_query unreach)
    { qc with Cert.merged = [ (2, 1) ] }
    Cert.Mask

let test_mutation_stale_version () =
  let net, _, qc = wf_base () in
  let s = Cert.to_string (Cert_emit.make net [ qc ]) in
  let tag = "tamc-cert 1" in
  Alcotest.(check bool) "stale-version: header present" true
    (String.length s > String.length tag
    && String.sub s 0 (String.length tag) = tag);
  let stale =
    "tamc-cert 0" ^ String.sub s (String.length tag) (String.length s - String.length tag)
  in
  match Cert.parse stale with
  | Ok _ -> Alcotest.fail "stale-version: parsed a version-0 certificate"
  | Error f ->
      Alcotest.(check string) "stale-version: rejection names format"
        (Cert.obligation_name Cert.Format)
        (Cert.obligation_name f.Cert.obligation)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cert"
    [
      ( "matrix",
        [
          Alcotest.test_case "zoo: every verdict certifies" `Quick
            test_zoo_matrix;
          Alcotest.test_case "examples: every verdict certifies" `Quick
            test_examples_matrix;
          Alcotest.test_case "radionav: WCRT certifies" `Slow
            test_radionav_certificates;
          QCheck_alcotest.to_alcotest test_random_certificates;
        ] );
      ( "stability",
        [
          Alcotest.test_case "1 vs 4 domains: byte-identical" `Quick
            test_domain_count_byte_equality;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "dropped state -> consecution" `Quick
            test_mutation_drop_state;
          Alcotest.test_case "widened zone -> judgment" `Quick
            test_mutation_widen_zone;
          Alcotest.test_case "shrunk LU vector -> consecution" `Quick
            test_mutation_shrink_lu;
          Alcotest.test_case "swapped discrete state -> consecution" `Quick
            test_mutation_swap_state;
          Alcotest.test_case "stale version tag -> format" `Quick
            test_mutation_stale_version;
          Alcotest.test_case "bogus merged clock pair -> mask" `Quick
            test_mutation_bogus_merge;
        ] );
    ]

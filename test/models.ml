(* Small hand-built networks with known answers, shared by the ta and
   mc test suites. *)

open Ita_ta

let tt = Guard.tt

let loc ?(kind = Automaton.Normal) ?(invariant = tt) loc_name =
  { Automaton.loc_name; invariant; kind }

let edge ?(guard = tt) ?(sync = Automaton.NoSync) ?(update = Update.none) src
    dst =
  { Automaton.src; guard; sync; update; dst }

(* Two-phase automaton: L0 --(1 <= x <= 2, x := 0)--> L1 (inv x <= 4)
   --(x == 4)--> L2.  Clock [y] is never reset, so on *entering* L2 it
   ranges over [5, 6]: the canonical sup-query example.  L2 is
   committed so that time stops there — exactly like the paper's [seen]
   location of the measuring automaton; otherwise [y] would keep
   growing at L2 and its sup would rightly be infinite. *)
let two_phase () =
  let b = Network.Builder.create () in
  let x = Network.Builder.clock b "x" in
  let y = Network.Builder.clock b "y" in
  let p =
    Automaton.make ~name:"P"
      ~locations:
        [
          loc "L0";
          loc "L1" ~invariant:(Guard.clock_le x 4);
          loc "L2" ~kind:Automaton.Committed;
        ]
      ~edges:
        [
          edge 0 1
            ~guard:(Guard.conj (Guard.clock_ge x 1) (Guard.clock_le x 2))
            ~update:(Update.reset x);
          edge 1 2 ~guard:(Guard.clock_eq x 4);
        ]
      ~initial:0
  in
  Network.Builder.add_automaton b p;
  let net = Network.Builder.build b in
  (net, x, y)

(* Urgency: T sets [flag] at z == 5; U's urgent [hurry!] edge is then
   enabled, so time may not pass until U moves. *)
let urgent_gate () =
  let b = Network.Builder.create () in
  let z = Network.Builder.clock b "z" in
  let flag = Network.Builder.int_var b "flag" ~lo:0 ~hi:1 ~init:0 in
  let hurry = Network.Builder.channel b "hurry" Channel.Broadcast ~urgent:true in
  let u =
    Automaton.make ~name:"U"
      ~locations:[ loc "L0"; loc "L1" ]
      ~edges:
        [
          edge 0 1
            ~guard:(Guard.data Expr.(Cmp (Eq, Var flag, Int 1)))
            ~sync:(Automaton.Send hurry);
        ]
      ~initial:0
  in
  let t =
    Automaton.make ~name:"T"
      ~locations:[ loc "M0" ~invariant:(Guard.clock_le z 5); loc "M1" ]
      ~edges:
        [
          edge 0 1 ~guard:(Guard.clock_eq z 5)
            ~update:(Update.set flag (Expr.Int 1));
        ]
      ~initial:0
  in
  Network.Builder.add_automaton b u;
  Network.Builder.add_automaton b t;
  (Network.Builder.build b, z)

(* Committed: while A sits in committed K1, the unrelated B may not
   move. *)
let committed_gate () =
  let b = Network.Builder.create () in
  let w = Network.Builder.clock b "w" in
  let a =
    Automaton.make ~name:"A"
      ~locations:
        [
          loc "K0" ~invariant:(Guard.clock_le w 3);
          loc "K1" ~kind:Automaton.Committed;
          loc "K2";
        ]
      ~edges:[ edge 0 1 ~guard:(Guard.clock_eq w 3); edge 1 2 ]
      ~initial:0
  in
  let bb =
    Automaton.make ~name:"B"
      ~locations:[ loc "N0"; loc "N1" ]
      ~edges:[ edge 0 1 ]
      ~initial:0
  in
  Network.Builder.add_automaton b a;
  Network.Builder.add_automaton b bb;
  (Network.Builder.build b, w)

(* Binary handshake: S moves iff R has reached its listening
   location. *)
let handshake () =
  let b = Network.Builder.create () in
  let z = Network.Builder.clock b "z" in
  let c = Network.Builder.channel b "c" Channel.Binary ~urgent:false in
  let s =
    Automaton.make ~name:"S"
      ~locations:[ loc "P0"; loc "P1" ]
      ~edges:[ edge 0 1 ~sync:(Automaton.Send c) ]
      ~initial:0
  in
  let r =
    Automaton.make ~name:"R"
      ~locations:[ loc "Q0"; loc "Q1"; loc "Q2" ]
      ~edges:
        [
          edge 0 1 ~guard:(Guard.clock_ge z 2);
          edge 1 2 ~sync:(Automaton.Recv c);
        ]
      ~initial:0
  in
  Network.Builder.add_automaton b s;
  Network.Builder.add_automaton b r;
  (Network.Builder.build b, z)

(* Broadcast: one sender, two receivers of which only one is enabled;
   the disabled one must not block and must not move. *)
let broadcast_pair () =
  let b = Network.Builder.create () in
  let ok = Network.Builder.int_var b "ok" ~lo:0 ~hi:1 ~init:1 in
  let c = Network.Builder.channel b "bc" Channel.Broadcast ~urgent:false in
  let s =
    Automaton.make ~name:"S"
      ~locations:[ loc "P0"; loc "P1" ]
      ~edges:[ edge 0 1 ~sync:(Automaton.Send c) ]
      ~initial:0
  in
  let recv name guard =
    Automaton.make ~name
      ~locations:[ loc "R0"; loc "R1" ]
      ~edges:[ edge 0 1 ~sync:(Automaton.Recv c) ~guard ]
      ~initial:0
  in
  Network.Builder.add_automaton b s;
  Network.Builder.add_automaton b
    (recv "REN" (Guard.data Expr.(Cmp (Eq, Var ok, Int 1))));
  Network.Builder.add_automaton b
    (recv "RDIS" (Guard.data Expr.(Cmp (Eq, Var ok, Int 0))));
  Network.Builder.build b

(* The five periodic-with-offset (po) cells of Table 1 with their exact
   WCRTs in microseconds: (combination, scenario, requirement, WCRT).
   Each explores at most a few thousand zones at the ceiling
   [Analyze.wcrt] seeds. *)
let radionav_po_cells =
  let module R = Ita_casestudy.Radionav in
  [
    (R.Cv_tmc, "HandleTMC", "TMC", 373_859);
    (R.Cv_tmc, "ChangeVolume", "K2A", 32_829);
    (R.Cv_tmc, "ChangeVolume", "A2V", 35_919);
    (R.Al_tmc, "AddressLookup", "E2E", 79_075);
    (R.Al_tmc, "HandleTMC", "TMC", 172_106);
  ]

(* A periodic pacer plus [n] sporadic clients.  Client [i]'s clock only
   appears in the lower-bound guard of its own re-arm loop, so its U
   constant is 0: zones that differ only above the client's L constant
   are LU-simulation equivalent, and LuSim prunes them where Extra+LU's
   extrapolation keeps them apart.  The separation is a never-written
   variable declared over [0, 4*S_i], so the L bound the engine uses is
   the flow-refined constant [S_i] rather than the range's worst case. *)
let sporadic_family n =
  let b = Network.Builder.create () in
  let p = Network.Builder.clock b "p" in
  let clocks =
    Array.init n (fun i -> Network.Builder.clock b (Printf.sprintf "x%d" i))
  in
  let period = 4 in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"Pacer"
       ~locations:[ loc "P" ~invariant:(Guard.clock_le p period) ]
       ~edges:
         [ edge 0 0 ~guard:(Guard.clock_eq p period) ~update:(Update.reset p) ]
       ~initial:0);
  Array.iteri
    (fun i x ->
      let sep = 3 + (2 * i) in
      let sv =
        Network.Builder.int_var b
          (Printf.sprintf "s%d" i)
          ~lo:0 ~hi:(4 * sep) ~init:sep
      in
      Network.Builder.add_automaton b
        (Automaton.make
           ~name:(Printf.sprintf "C%d" i)
           ~locations:[ loc "L" ]
           ~edges:
             [
               edge 0 0
                 ~guard:(Guard.clock_rel x Guard.Ge (Expr.Var sv))
                 ~update:(Update.reset x);
             ]
           ~initial:0))
    clocks;
  Network.Builder.build b

(* Random diagonal-free automata: one component [P] over clocks [x] (1)
   and [y] (2), two to four locations [L0..], random guards, upper-bound
   invariants on [x] and resets.  Upper-bound invariants only, so the
   initial valuation always satisfies them; clocks that go inactive in
   some locations exercise the active-clock reduction.  Yields the
   network and its location count. *)
let gen_random_net =
  let open QCheck2.Gen in
  let gen_atom clock =
    let* rel = oneofl [ Guard.Lt; Guard.Le; Guard.Ge; Guard.Gt; Guard.Eq ] in
    let* c = int_range 0 8 in
    return (Guard.clock_rel clock rel (Expr.Int c))
  in
  let gen_guard =
    let* use_x = bool and* use_y = bool in
    let* gx = gen_atom 1 and* gy = gen_atom 2 in
    return
      (Guard.conj
         (if use_x then gx else Guard.tt)
         (if use_y then gy else Guard.tt))
  in
  let* nl = int_range 2 4 in
  let* invariants =
    list_repeat nl
      (let* inv = bool in
       let* c = int_range 1 8 in
       return (if inv then Guard.clock_le 1 c else Guard.tt))
  in
  let* n_edges = int_range nl (2 * nl) in
  let* edges =
    list_repeat n_edges
      (let* src = int_range 0 (nl - 1) and* dst = int_range 0 (nl - 1) in
       let* guard = gen_guard in
       let* reset_x = bool and* reset_y = bool in
       let update =
         List.concat
           [
             (if reset_x then Update.reset 1 else []);
             (if reset_y then Update.reset 2 else []);
           ]
       in
       return (edge src dst ~guard ~update))
  in
  let b = Network.Builder.create () in
  let _x = Network.Builder.clock b "x" in
  let _y = Network.Builder.clock b "y" in
  let locations =
    List.mapi
      (fun i inv -> loc (Printf.sprintf "L%d" i) ~invariant:inv)
      invariants
  in
  Network.Builder.add_automaton b
    (Automaton.make ~name:"P" ~locations ~edges ~initial:0);
  return (Network.Builder.build b, nl)

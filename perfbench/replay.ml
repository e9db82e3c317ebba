(* The traced run's layer-by-layer replay.  Each model-checking query
   is re-run through the layers' public functions — Gen, Slice, Flow,
   Wcrt.sup, Cert_emit, Cert.check, the three comparison engines —
   with one span around each call; the final passed list Wcrt.sup
   hands back then feeds probes that time Semantics.successors and the
   DBM primitives on real zones.  No hook inside the library is used. *)

open Ita_core
module Reach = Ita_mc.Reach
module Wcrt = Ita_mc.Wcrt
module Cert_emit = Ita_mc.Cert_emit
module Cert = Ita_cert.Cert
module Flow = Ita_analysis.Flow
module Lint = Ita_analysis.Lint
module Sem = Ita_ta.Semantics
module Dbm = Ita_dbm.Dbm
open Workloads

type query = {
  qname : string;
  sys : Sysmodel.t;
  scenario : string;
  requirement : string;
  expected_us : int option;  (** the verdict table's value, if any *)
}

let of_cell (i : cell_input) =
  {
    qname = Expected.cell_name i.cell;
    sys = i.sys;
    scenario = i.cell.Expected.scenario;
    requirement = i.cell.Expected.requirement;
    expected_us = Some i.cell.Expected.wcrt_us;
  }

(* Counts gathered at the layer boundaries, summed over the queries. *)
type counts = {
  mutable queries : int;
  mutable failures : (string * string) list;
  mutable clocks_ratio_sum : float;
  mutable explored : int;
  mutable stored : int;
  mutable transitions : int;
  mutable retries : int;
  mutable reach_self_s : float;
  mutable par_explored : int;  (** explored by the sup-query at [nproc] domains *)
  mutable steals : int;
  mutable states : int;  (** discrete states in the passed lists *)
  mutable zones : int;
  mutable len_max : int;
  mutable pairs : int;
  mutable succ_zones : int;
  mutable succ_out : int;
  mutable succ_s : float;
  mutable subset_ops : int;
  mutable subset_s : float;
  mutable le_lu_ops : int;
  mutable le_lu_s : float;
  mutable extra_ops : int;
  mutable extra_s : float;
  mutable cert_entries : int;
  mutable cert_zones : int;
}

let counts () =
  {
    queries = 0;
    failures = [];
    clocks_ratio_sum = 0.0;
    explored = 0;
    stored = 0;
    transitions = 0;
    retries = 0;
    reach_self_s = 0.0;
    par_explored = 0;
    steals = 0;
    states = 0;
    zones = 0;
    len_max = 0;
    pairs = 0;
    succ_zones = 0;
    succ_out = 0;
    succ_s = 0.0;
    subset_ops = 0;
    subset_s = 0.0;
    le_lu_ops = 0;
    le_lu_s = 0.0;
    extra_ops = 0;
    extra_s = 0.0;
    cert_entries = 0;
    cert_zones = 0;
  }

let fail k q msg = k.failures <- (q, msg) :: k.failures

let sup ~domains ?snap ~initial_ceiling (gen : Gen.t) =
  let obs = Option.get gen.Gen.observer in
  Wcrt.sup ~order ~abstraction ~reduction ~bounds ~domains ~slicing ?snap
    ~initial_ceiling gen.Gen.net ~at:obs.Gen.seen ~clock:obs.Gen.obs_clock

(* Probes on the final passed list: successor computation on every
   stored configuration, and the DBM primitives on every ordered zone
   pair within each antichain. *)
let probe k (snap : Reach.snapshot) =
  let net = snap.Reach.snap_net in
  let passed =
    List.map
      (fun (st, zones) ->
        let l, u = Sem.lu_bounds net st in
        (st, l, u, Array.of_list zones))
      snap.Reach.snap_passed
  in
  List.iter
    (fun (_, _, _, zs) ->
      let n = Array.length zs in
      k.states <- k.states + 1;
      k.zones <- k.zones + n;
      k.len_max <- max k.len_max n;
      k.pairs <- k.pairs + (n * (n - 1)))
    passed;
  let t0 = Stat.now () in
  List.iter
    (fun (st, _, _, zs) ->
      Array.iter
        (fun zone ->
          let succ =
            Sem.successors ~abstraction ~reduction net { Sem.state = st; zone }
          in
          k.succ_zones <- k.succ_zones + 1;
          k.succ_out <- k.succ_out + List.length succ)
        zs)
    passed;
  k.succ_s <- k.succ_s +. (Stat.now () -. t0);
  let pairs f () =
    List.iter
      (fun (_, l, u, zs) ->
        Array.iteri
          (fun i z ->
            Array.iteri (fun j z' -> if i <> j then ignore (f l u z z')) zs)
          zs)
      passed
  in
  let sum f = List.fold_left (fun a (_, _, _, zs) -> a + f (Array.length zs)) 0 passed in
  let npairs = sum (fun n -> n * (n - 1)) in
  if npairs > 0 then begin
    k.subset_ops <- k.subset_ops + npairs;
    k.subset_s <- k.subset_s +. Stat.per_call (pairs (fun _ _ z z' -> Dbm.subset z z'));
    k.le_lu_ops <- k.le_lu_ops + npairs;
    k.le_lu_s <- k.le_lu_s +. Stat.per_call (pairs Dbm.le_lu)
  end;
  let each f () =
    List.iter (fun (_, l, u, zs) -> Array.iter (fun z -> f l u z) zs) passed
  in
  let copy_s = Stat.per_call (each (fun _ _ z -> ignore (Dbm.copy z))) in
  let both_s =
    Stat.per_call (each (fun l u z -> Dbm.extrapolate_lu (Dbm.copy z) l u))
  in
  k.extra_ops <- k.extra_ops + sum Fun.id;
  k.extra_s <- k.extra_s +. Float.max 0.0 (both_s -. copy_s)

(* The path a query takes through the layers, one span per call:
   generation, the slice and flow analysis Wcrt.sup repeats inside
   (timed separately so exploration's self time can be isolated), the
   sup-query itself and, when [certify], certificate emission and the
   independent check.  Returns what {!extras} needs: the exact value,
   the final passed list, certification as a thunk, the generated
   network and the first ceiling. *)
let path k ~id ~certify q =
  let rec_ name f = Span.record ~query:id name f in
  let s = Sysmodel.scenario q.sys q.scenario in
  let req = Scenario.requirement s q.requirement in
  let gen = rec_ "gen" (fun () -> Gen.generate ~measure:(q.scenario, req) q.sys) in
  let obs = Option.get gen.Gen.observer in
  let at = obs.Gen.seen and clock = obs.Gen.obs_clock in
  let (_, snet, _), slice_s =
    Stat.time (fun () ->
        rec_ "slice" (fun () ->
            Reach.slice_query slicing ~extra_clocks:[ clock ] gen.Gen.net at))
  in
  k.clocks_ratio_sum <-
    k.clocks_ratio_sum
    +. float_of_int (Array.length snet.Ita_ta.Network.clock_names)
       /. float_of_int (Array.length gen.Gen.net.Ita_ta.Network.clock_names);
  let (), flow_s =
    Stat.time (fun () ->
        rec_ "flow" (fun () ->
            let fa = Flow.analyze snet in
            ignore (Flow.refine_lu fa snet, Flow.global_ranges fa)))
  in
  let initial_ceiling =
    max 4
      (4
      * Sysmodel.uncontended_us q.sys s ~from_step:req.Scenario.from_step
          ~to_step:req.Scenario.to_step)
  in
  let snap = ref None in
  let result, sup_s =
    Stat.time (fun () ->
        rec_ "wcrt.sup" (fun () ->
            sup ~domains:1 ~snap:(fun s -> snap := Some s) ~initial_ceiling gen))
  in
  k.queries <- k.queries + 1;
  match (result, !snap) with
  | Wcrt.Sup { value; kind; stats }, Some snapshot ->
      let rec retries c n = if value >= c then retries (c * 4) (n + 1) else n in
      let r = retries initial_ceiling 0 in
      k.retries <- k.retries + r;
      k.explored <- k.explored + stats.Reach.explored;
      k.stored <- k.stored + stats.Reach.stored;
      k.transitions <- k.transitions + stats.Reach.transitions;
      k.reach_self_s <-
        k.reach_self_s +. (sup_s -. slice_s -. (flow_s *. float_of_int (r + 1)));
      (match q.expected_us with
      | Some e when e <> value ->
          fail k q.qname (Printf.sprintf "wcrt %d us, expected %d us" value e)
      | _ -> ());
      let emit () =
        let kind =
          match kind with
          | Wcrt.Attained -> Cert.Attained
          | Wcrt.Approached -> Cert.Approached
        in
        let qc =
          rec_ "cert_emit" (fun () ->
              Cert_emit.of_snapshot ~index:0
                ~verdict:(Cert.Sup { clock; value; kind })
                snapshot)
        in
        k.cert_entries <- k.cert_entries + List.length qc.Cert.entries;
        match
          rec_ "cert_check" (fun () ->
              Cert.check gen.Gen.net ~goal:(Cert_emit.goal_of_query at) qc)
        with
        | Ok st -> k.cert_zones <- k.cert_zones + st.Cert.checked_zones
        | Error f ->
            fail k q.qname
              ("certificate rejected: " ^ Cert.obligation_name f.Cert.obligation)
      in
      if certify then emit ();
      Some (value, snapshot, emit, gen, initial_ceiling)
  | _ ->
      fail k q.qname "no exact sup";
      None

(* The layers a workload's own path does not call, replayed on the
   same query so every per-layer figure is measured on its inputs: the
   DSE lint pre-flight, certification (when the path skipped it), the
   sup-query at [nproc] domains, and the three comparison engines —
   simulation seeded from the benchmark seed. *)
let extras k ~id ~seed ~certified q (value, snapshot, emit, gen, c0) =
  let rec_ name f = Span.record ~query:id name f in
  let plain = Gen.generate q.sys in
  ignore (rec_ "lint" (fun () -> Lint.run plain.Gen.net));
  if not certified then emit ();
  (match rec_ "wcrt.sup.par" (fun () -> sup ~domains:nproc ~initial_ceiling:c0 gen) with
  | Wcrt.Sup { value = v; stats; _ } ->
      if v <> value then
        fail k q.qname
          (Printf.sprintf "%d domains gave %d us, 1 gave %d us" nproc v value);
      k.par_explored <- k.par_explored + stats.Reach.explored;
      k.steals <- k.steals + stats.Reach.steals
  | _ -> fail k q.qname (Printf.sprintf "no exact sup at %d domains" nproc));
  ignore
    (rec_ "rtc" (fun () ->
         Ita_rtc.Gpc.wcrt_bound q.sys ~scenario:q.scenario
           ~requirement:q.requirement));
  ignore
    (rec_ "symta" (fun () ->
         Ita_symta.Sysanalysis.wcrt_bound q.sys ~scenario:q.scenario
           ~requirement:q.requirement));
  let sim =
    rec_ "sim" (fun () ->
        Ita_sim.Engine.max_response ~runs:dse_budget.Ita_dse.Job.sim_runs
          ~horizon_us:dse_budget.Ita_dse.Job.sim_horizon_us
          ~first_seed:(1 + (seed * dse_budget.Ita_dse.Job.sim_runs))
          q.sys ~scenario:q.scenario ~requirement:q.requirement)
  in
  if sim > value then
    fail k q.qname (Printf.sprintf "simulated %d us above exact %d us" sim value);
  probe k snapshot

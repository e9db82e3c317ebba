open Ita_mc

type method_ =
  | Exhaustive
  | Structured_testing of { start : int; step : int }

type outcome =
  | Exact_wcrt of int
  | Wcrt_lower_bound of int
  | Unbounded of int
  | No_response
  | No_verdict

type result = {
  outcome : outcome;
  explored : int;
  elapsed : float;
  uncontended_us : int;
  certified : (Ita_cert.Cert.stats, Ita_cert.Cert.failure) Stdlib.result option;
  check_elapsed : float;
}

let wcrt ?(method_ = Exhaustive) ?order ?budget ?abstraction ?reduction:_
    ?bounds:_ ?domains ?slicing ?(certify = false) ?cert_out sys ~scenario
    ~requirement =
  let s = Sysmodel.scenario sys scenario in
  let req = Scenario.requirement s requirement in
  let gen = Gen.generate ~measure:(scenario, req) sys in
  let observer =
    match gen.Gen.observer with Some o -> o | None -> assert false
  in
  let at = observer.Gen.seen and clock = observer.Gen.obs_clock in
  let uncontended_us =
    Sysmodel.uncontended_us sys s ~from_step:req.Scenario.from_step
      ~to_step:req.Scenario.to_step
  in
  (* Certification only applies to the exhaustive sup-query: that is
     the one method whose verdict is an invariant rather than a bound
     from an incomplete search. *)
  let want_cert = certify || cert_out <> None in
  let snap_ref = ref None in
  let snap =
    if want_cert then Some (fun s -> snap_ref := Some s) else None
  in
  let qcert = ref None in
  let of_stats outcome (s : Reach.stats) =
    (outcome, s.Reach.explored, s.Reach.elapsed)
  in
  let searched outcome (r : Wcrt.search_result) =
    (outcome, r.Wcrt.total_explored, r.Wcrt.total_elapsed)
  in
  let outcome, explored, elapsed =
    match method_ with
    | Exhaustive -> (
        match
          Wcrt.sup ?order ?budget ?abstraction ?domains ?slicing ?snap
            ~initial_ceiling:(max 4 (4 * uncontended_us))
            gen.Gen.net ~at ~clock
        with
        | Wcrt.Sup { value; kind; stats } ->
            qcert :=
              Option.map
                (Cert_emit.of_snapshot ~index:0
                   ~verdict:(Ita_cert.Cert.Sup { clock; value; kind }))
                !snap_ref;
            of_stats (Exact_wcrt value) stats
        | Wcrt.Goal_unreachable stats -> of_stats No_response stats
        | Wcrt.Sup_budget_exhausted { observed = Some v; stats } ->
            of_stats (Wcrt_lower_bound v) stats
        | Wcrt.Sup_budget_exhausted { observed = None; stats } ->
            of_stats No_verdict stats
        | Wcrt.Sup_unbounded { ceiling; stats } ->
            of_stats (Unbounded ceiling) stats)
    | Structured_testing { start; step } -> (
        let r =
          Wcrt.probe_lower ?order ?budget ?abstraction ?domains ?slicing
            gen.Gen.net ~at ~clock ~start ~step
        in
        (* no counterexample at [start] says nothing about whether a
           response occurs at all *)
        match r.Wcrt.lower with
        | Some l -> searched (Wcrt_lower_bound l) r
        | None -> searched No_verdict r)
  in
  let certified, check_elapsed =
    match !qcert with
    | None -> (None, 0.)
    | Some qc ->
        (match cert_out with
        | Some path ->
            Ita_cert.Cert.save path (Cert_emit.make gen.Gen.net [ qc ])
        | None -> ());
        if certify then
          let t0 = Unix.gettimeofday () in
          let r =
            Ita_cert.Cert.check gen.Gen.net
              ~goal:(Cert_emit.goal_of_query at)
              qc
          in
          (Some r, Unix.gettimeofday () -. t0)
        else (None, 0.)
  in
  { outcome; explored; elapsed; uncontended_us; certified; check_elapsed }

let pp_outcome ppf = function
  | Exact_wcrt us -> Units.pp_ms ppf us
  | Wcrt_lower_bound us -> Format.fprintf ppf "> %a" Units.pp_ms us
  | Unbounded _ -> Format.pp_print_string ppf "unbounded"
  | No_response -> Format.pp_print_string ppf "-"
  | No_verdict -> Format.pp_print_string ppf "?"

type verdict = Met | Violated | Unknown

type budget_report = {
  scenario_name : string;
  requirement_name : string;
  budget_us : int;
  wcrt : outcome;
  verdict : verdict;
}

let check_budgets ?method_ ?order ?abstraction ?domains ?slicing
    (sys : Sysmodel.t) =
  List.concat_map
    (fun (s : Scenario.t) ->
      List.filter_map
        (fun (req : Scenario.requirement) ->
          match req.Scenario.budget_us with
          | None -> None
          | Some budget_us ->
              let r =
                wcrt ?method_ ?order ?abstraction ?domains ?slicing sys
                  ~scenario:s.Scenario.name
                  ~requirement:req.Scenario.req_name
              in
              let verdict =
                match r.outcome with
                | Exact_wcrt v -> if v < budget_us then Met else Violated
                | Wcrt_lower_bound v | Unbounded v ->
                    if v >= budget_us then Violated else Unknown
                | No_response | No_verdict -> Unknown
              in
              Some
                {
                  scenario_name = s.Scenario.name;
                  requirement_name = req.Scenario.req_name;
                  budget_us;
                  wcrt = r.outcome;
                  verdict;
                })
        s.Scenario.requirements)
    sys.Sysmodel.scenarios

let pp_budget_report ppf r =
  Format.fprintf ppf "%s/%s: wcrt %a ms vs budget %a ms -> %s"
    r.scenario_name r.requirement_name pp_outcome r.wcrt Units.pp_ms
    r.budget_us
    (match r.verdict with
    | Met -> "met"
    | Violated -> "VIOLATED"
    | Unknown -> "unknown")

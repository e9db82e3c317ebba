(* The paper's Table 2 in miniature: one requirement (HandleTMC next
   to AddressLookup, pno), four techniques — exhaustive model checking,
   discrete-event simulation, busy-window analysis, real-time calculus —
   each run as one design-space job.

   The expected shape (paper Section 5): simulation finds less than the
   model checker (it samples behaviors), the analytic techniques find
   more (they are conservative).

   Run with: dune exec examples/compare_techniques.exe *)

open Ita_core
module R = Ita_casestudy.Radionav
module Job = Ita_dse.Job

let () =
  let sys = R.system R.Al_tmc R.Pno in
  (* 20 simulation seeds of 60 s each *)
  let budget =
    { Job.default_budget with Job.sim_runs = 20; sim_horizon_us = 60_000_000 }
  in
  let wcrt technique =
    let r =
      Job.run
        {
          Job.sys;
          technique;
          scenario = "HandleTMC";
          requirement = "TMC";
          budget;
        }
    in
    match Job.measure_us r.Job.measure with
    | Some v -> v
    | None ->
        failwith
          (Format.asprintf "%s: %a" (Job.technique_name technique)
             Job.pp_measure r.Job.measure)
  in
  let mc = wcrt Job.Mc in
  let sim = wcrt Job.Sim in
  let symta = wcrt Job.Symta in
  let mpa = wcrt Job.Rtc in
  Format.printf "HandleTMC worst-case response time, four ways:@.";
  Format.printf "  simulation (20 seeds) : %a ms@." Units.pp_ms sim;
  Format.printf "  model checking        : %a ms  (exact)@." Units.pp_ms mc;
  Format.printf "  busy-window (SymTA/S) : %a ms@." Units.pp_ms symta;
  Format.printf "  calculus (MPA)        : %a ms@." Units.pp_ms mpa;
  if sim <= mc && mc <= symta && mc <= mpa then
    Format.printf "shape holds: simulation <= exact <= analytic bounds@."
  else
    Format.printf "SHAPE VIOLATION - investigate!@."

(* Event arrival models matter: the same architecture under the five
   environment columns of the paper's Table 1, for the HandleTMC
   requirement next to AddressLookup.

   po (synchronous periodic) gives the smallest worst case; releasing
   the offsets (pno), then the periods (sp), then adding jitter (pj)
   and bursts (bur) each uncover strictly worse schedules.  The pj and
   bur columns use the paper's "structured testing" fallback: a
   budgeted depth-first hunt for counterexamples, which yields lower
   bounds ("> value").

   Run with: dune exec examples/bursty_gate.exe *)

open Ita_core
module R = Ita_casestudy.Radionav
module Reach = Ita_mc.Reach

let () =
  Format.printf "HandleTMC (+ AddressLookup) WCRT per event model:@.";
  List.iter
    (fun column ->
      let sys = R.system R.Al_tmc column in
      let r =
        match column with
        | R.Po | R.Pno | R.Sp ->
            Analyze.wcrt sys ~scenario:"HandleTMC" ~requirement:"TMC"
        | R.Pj | R.Bur ->
            Analyze.wcrt
              ~method_:
                (Analyze.Structured_testing { start = 172_106; step = 25_000 })
              ~order:Reach.Dfs ~budget:(Reach.states 150_000) sys
              ~scenario:"HandleTMC" ~requirement:"TMC"
      in
      Format.printf "  %-4s: %10s ms  (%d states, %.2fs)@."
        (R.column_name column)
        (Format.asprintf "%a" Analyze.pp_outcome r.Analyze.outcome)
        r.Analyze.explored r.Analyze.elapsed)
    [ R.Po; R.Pno; R.Sp; R.Pj; R.Bur ]

(* The two workloads, untraced: inputs drawn from the seed, then the
   query list sent through the public entry points users call, one
   query after the previous one finished (a closed loop, one client). *)

open Ita_core
module R = Ita_casestudy.Radionav
module Reach = Ita_mc.Reach
module Prng = Ita_util.Prng
open Ita_dse

(* Every engine setting except the domain count, at its shipped
   default, passed explicitly so no TAMC_* variable can change it. *)
let order = Reach.Bfs
let abstraction = Reach.ExtraLU
let reduction = Reach.Active
let bounds = Reach.Flow
let slicing = Reach.CoiMerge
let nproc = Domain.recommended_domain_count ()

type query = {
  name : string;
  seconds : float option;  (** time to verdict; [None] for a cache hit *)
  failure : string option;
}

(* ---- exact-certified: the Table-1 cells ---- *)

type cell_input = { cell : Expected.cell; sys : Sysmodel.t }

(* The cells go in Table-1 order whatever the seed: the heap a cell
   finds depends on the cells before it, and a shuffled order made
   peak_heap_mb vary by 13% from seed to seed. *)
let cells_setup () =
  List.map
    (fun (c : Expected.cell) -> { cell = c; sys = R.system c.combo c.column })
    Expected.exact_cells

(* [Analyze.wcrt ~domains:1 ~certify:true], what `ranav wcrt --certify
   --domains 1` runs; [expect] maps a cell to the verdict required of it. *)
let run_cells ~expect inputs =
  List.map
    (fun { cell; sys } ->
      let failure, seconds =
        Stat.time (fun () ->
            match
              Analyze.wcrt ~method_:Analyze.Exhaustive ~order ~abstraction
                ~reduction ~bounds ~domains:1 ~slicing ~certify:true sys
                ~scenario:cell.Expected.scenario
                ~requirement:cell.Expected.requirement
            with
            | r -> Expected.check_exact (expect cell) r
            | exception e -> Some (Printexc.to_string e))
      in
      { name = Expected.cell_name cell; seconds = Some seconds; failure })
    inputs

(* ---- dse-sweep: architecture candidates of the radio navigation ---- *)

let mmi_levels = [ 22.0; 44.0 ]
let rad_levels = [ 11.0; 22.0 ]
let nav_levels = [ 56.5; 113.0 ]
let decode_levels = [ "NAV"; "RAD"; "MMI" ]
let bus_levels = [ 48.0; 72.0; 96.0; 120.0 ]
let extra_bus = 144.0
let per_placement = 4
let scenario = "HandleTMC"
let requirement = "TMC"

let the_choice (a : Space.axis) =
  match a.Space.choices with [ c ] -> c | _ -> assert false

(* One (MMI, RAD, NAV, DecodeTMC placement) configuration as a single
   choice, composed from the library's own single-level axes. *)
let config_choice (mmi, rad, nav, dec) =
  let cs =
    List.map the_choice
      [
        Space.mips_axis ~resource:"MMI" [ mmi ];
        Space.mips_axis ~resource:"RAD" [ rad ];
        Space.mips_axis ~resource:"NAV" [ nav ];
        Space.mapping_axis ~scenario ~step:2 [ dec ];
      ]
  in
  ( String.concat " " (List.map (fun c -> c.Space.label) cs),
    fun sys -> List.fold_left (fun s c -> c.Space.transform s) sys cs )

type dse_input = {
  cold : Space.t;  (** drawn configurations x [bus_levels] *)
  warm : Space.t;  (** the same with [extra_bus] added *)
}

(* The seed draws [per_placement] of the 8 (MMI, RAD, NAV) speed
   configurations for each DecodeTMC placement; crossed with the bus
   levels they give the candidate list.  Drawing within each placement
   keeps the mix of placements, the axis that changes the generated
   model most, the same on every seed. *)
let dse_setup ~seed =
  let rng = Prng.create seed in
  let speeds =
    List.concat_map
      (fun m ->
        List.concat_map (fun r -> List.map (fun n -> (m, r, n)) nav_levels) rad_levels)
      mmi_levels
  in
  let configs =
    List.concat_map
      (fun d ->
        let a = Array.of_list speeds in
        Prng.shuffle rng a;
        List.map
          (fun (m, r, n) -> config_choice (m, r, n, d))
          (Array.to_list (Array.sub a 0 per_placement)))
      decode_levels
  in
  let space levels =
    let s =
      Space.make
        ~name:(Printf.sprintf "radionav-al-po-bench-%d" (List.length levels))
        ~base:(R.system R.Al_tmc R.Po)
        ~axes:
          [ Space.axis "config" configs; Space.kbps_axis ~resource:"BUS" levels ]
    in
    ignore (Space.candidates s);
    s
  in
  { cold = space bus_levels; warm = space (bus_levels @ [ extra_bus ]) }

let dse_budget =
  {
    Job.mc_states = None;
    mc_seconds = None;
    mc_abstraction = abstraction;
    mc_bounds = bounds;
    mc_domains = Some 1;
    mc_slicing = slicing;
    mc_certify = false;
    sim_runs = 5;
    sim_horizon_us = 30_000_000;
  }

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* The ranav explore defaults: fork isolation, 600 s per-job timeout,
   one worker per core. *)
let explore ~cache space =
  Explore.run ~isolation:`Processes ~jobs:nproc ~timeout_s:600.0 ~cache
    ~budget:dse_budget space ~techniques:Job.all_techniques ~scenario
    ~requirement

let status_failure = function
  | Explore.Done _ -> None
  | Explore.Crashed m -> Some ("crashed: " ^ m)
  | Explore.Timed_out s -> Some (Printf.sprintf "timed out after %.0f s" s)
  | Explore.Rejected m -> Some ("rejected: " ^ m)

(* One query per candidate row: its verdict needs all four techniques,
   so its time to verdict is the sum of the in-worker times of the jobs
   the sweep executed for it ([None] when all came from the cache).  The
   row fails if any job failed, or if its measures break the
   cross-engine bounds.  [shift_us] moves every mc value before that
   check: the gate test feeds it a wrong value. *)
let report_queries ~shift_us (rep : Explore.report) =
  List.map
    (fun (row : Explore.row) ->
      let measure tech =
        List.find_map
          (fun (c : Explore.cell) ->
            match c.Explore.status with
            | Explore.Done r when c.Explore.technique = tech -> Some r.Job.measure
            | _ -> None)
          row.Explore.cells
      in
      let failure =
        match List.find_map (fun c -> status_failure c.Explore.status) row.Explore.cells with
        | Some f -> Some f
        | None -> (
            match (measure Job.Mc, measure Job.Sim, measure Job.Symta, measure Job.Rtc) with
            | Some mc, Some sim, Some symta, Some rtc ->
                let mc =
                  match mc with Job.Exact v -> Job.Exact (v + shift_us) | m -> m
                in
                Expected.check_bounds ~mc ~sim ~symta ~rtc
            | _ -> Some "a technique is missing from the row")
      in
      let executed =
        List.filter_map
          (fun (c : Explore.cell) ->
            match c.Explore.status with
            | Explore.Done r when not c.Explore.cached -> Some r.Job.elapsed
            | _ -> None)
          row.Explore.cells
      in
      {
        name = Space.label row.Explore.candidate;
        seconds =
          (if executed = [] then None else Some (List.fold_left ( +. ) 0.0 executed));
        failure;
      })
    rep.Explore.rows

(* A pass: a cold sweep into a fresh cache, then the re-sweep with one
   more bus level, which finds most of its jobs in that cache. *)
let run_dse ~work_dir ?(wrap = fun _ f -> f ()) ?(shift_us = 0) input =
  let dir = Filename.concat work_dir "dse-cache" in
  remove_tree dir;
  let cache = Cache.create ~dir in
  let cold = wrap "dse.cold" (fun () -> explore ~cache input.cold) in
  let warm = wrap "dse.warm" (fun () -> explore ~cache input.warm) in
  remove_tree dir;
  (report_queries ~shift_us cold @ report_queries ~shift_us warm, [ cold; warm ])

(* The repository benchmark.  See README.md for the workloads, the
   metrics and the layer each one belongs to.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--work-dir D] [--trace-out F] [--commit C]
               [--perturb-expected]
     bench.exe --self-test

   The last line of standard output is one JSON object: correct,
   attempted, failed and the metrics (end-to-end with --trace 0,
   per-layer with --trace 1).  Lines before it are the readable
   report. *)

open Workloads

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let work_dir = ref "."
let trace_out = ref ""
let commit = ref "unknown"
let perturb = ref false
let self_test = ref false

let speclist =
  [
    ("--workload", Arg.Set_string workload, " exact-certified | dse-sweep");
    ("--seed", Arg.Set_int seed, " input seed");
    ("--seconds", Arg.Set_float seconds, " measured time of an untraced run");
    ("--trace", Arg.Set_int trace, " 1: traced run with the per-layer split");
    ("--work-dir", Arg.Set_string work_dir, " scratch directory for the DSE cache");
    ("--trace-out", Arg.Set_string trace_out, " write the spans of a traced run here");
    ("--commit", Arg.Set_string commit, " commit recorded in the report");
    ("--perturb-expected", Arg.Set perturb, " shift every expected verdict (gate test)");
    ("--self-test", Arg.Set self_test, " unit checks of the correctness gates");
  ]

type input = Cells of cell_input list | Dse of dse_input

(* Set-up time: the median over 21 samples, each the mean of
   back-to-back set-ups over at least 20 ms.  How many set-ups that
   takes depends on the host's speed, so the heap is compacted after
   them: the passes then start from the same heap on every run. *)
let setup_time f =
  let t = Stat.median (List.init 21 (fun _ -> Stat.per_call ~min_s:0.02 f)) in
  Gc.compact ();
  t

(* --perturb-expected: exact cells expect 1 us more than the table,
   DSE rows move their mc value 1 s up, past every upper bound. *)
let shift_us () = if !perturb then 1 else 0
let dse_shift_us () = if !perturb then 1_000_000 else 0

let setup () =
  match !workload with
  | "exact-certified" -> Cells (cells_setup ())
  | "dse-sweep" -> Dse (dse_setup ~seed:!seed)
  | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2

let expect (c : Expected.cell) = { c with wcrt_us = c.wcrt_us + shift_us () }

(* One pass over the workload's full query list, untraced. *)
let run_pass = function
  | Cells c -> run_cells ~expect c
  | Dse d -> fst (run_dse ~work_dir:!work_dir ~shift_us:(dse_shift_us ()) d)

let failed qs = List.filter (fun q -> q.failure <> None) qs

let print_failures qs =
  List.iteri
    (fun i q ->
      match q.failure with
      | Some f when i < 20 -> Printf.printf "FAIL %s: %s\n" q.name f
      | _ -> ())
    (failed qs)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* A metric that is not a finite number is a defect of the benchmark:
   fail the run rather than print a result. *)
let print_result ~attempted ~failed metrics =
  List.iter
    (fun (name, _, v) ->
      if not (Float.is_finite v) then failwith ("metric " ^ name ^ " is not finite"))
    metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (Printf.sprintf "%.17g" v) unit)
          metrics))

let context () =
  Printf.printf "workload %s  seed %d  nproc %d  commit %s  ocaml %s\n" !workload
    !seed nproc !commit Sys.ocaml_version;
  let tamc =
    List.filter
      (fun kv -> String.length kv > 5 && String.sub kv 0 5 = "TAMC_")
      (Array.to_list (Unix.environment ()))
  in
  Printf.printf "TAMC_* set: %s\n"
    (if tamc = [] then "none" else String.concat " " tamc)

(* ---- untraced run: the end-to-end metrics ---- *)

let untraced () =
  let input = ref None in
  let setup_s =
    setup_time (fun () -> input := Some (setup ()))
  in
  let input = Option.get !input in
  let t_start = Stat.now () in
  let cpu = ref [] in
  let peak_heap = ref nan in
  let rec loop acc =
    let c0 = Sys.time () in
    let qs, wall = Stat.time (fun () -> run_pass input) in
    cpu := (Sys.time () -. c0) :: !cpu;
    (* the heap grows with the number of passes, which depends on the
       host's speed; the peak over one pass does not *)
    if acc = [] then peak_heap := peak_heap_mb ();
    let acc = (qs, wall) :: acc in
    let est = Stat.median (List.map snd acc) in
    if Stat.now () -. t_start +. est > !seconds then List.rev acc else loop acc
  in
  let passes = loop [] in
  let qs = List.concat_map fst passes in
  let samples = List.filter_map (fun q -> q.seconds) qs in
  let n = List.length samples in
  let nfailed = List.length (failed qs) in
  context ();
  Printf.printf "passes %d  pass walls %s s\n" (List.length passes)
    (String.concat " " (List.map (fun (_, w) -> Printf.sprintf "%.3f" w) passes));
  Printf.printf "pass cpu %s s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !cpu));
  Printf.printf "queries %d  timed %d  fail_rate %.4f (ratio)\n" (List.length qs) n
    (float_of_int nfailed /. float_of_int (max 1 (List.length qs)));
  (* the highest percentile with at least ten samples beyond it *)
  if n >= 100 then
    Printf.printf "query_p90_s %.6f s over %d samples\n" (Stat.quantile 0.9 samples) n
  else Printf.printf "query_p90_s not reported: %d samples, fewer than 10 beyond p90\n" n;
  (match input with
  | Cells cells ->
      List.iter
        (fun (i : cell_input) ->
          let name = Expected.cell_name i.cell in
          Printf.printf "cell %-28s median %.6f s\n" name
            (Stat.median
               (List.filter_map (fun q -> if q.name = name then q.seconds else None) qs)))
        cells
  | Dse _ -> ());
  print_failures qs;
  print_result ~attempted:(List.length qs) ~failed:nfailed
    [
      ("wall_s", "s", Stat.median (List.map snd passes));
      ("query_p50_s", "s", Stat.median samples);
      ("peak_heap_mb", "MB", !peak_heap);
      ("setup_s", "s", setup_s);
    ]

(* ---- traced run: the per-layer split ---- *)

(* The DSE layer's figures over a list of sweep reports: jobs settled
   per second, the share of cache lookups that hit, and the worker
   time per executed job spent outside Job.run (fork, marshalling,
   cache I/O, idle tail) net of the lint pre-flight, which costs
   [lint_s] per candidate. *)
let dse_figures ~lint_s (reps : Ita_dse.Explore.report list) =
  let open Ita_dse.Explore in
  let sum f = List.fold_left (fun a r -> a + f r) 0 reps in
  let sumf f = List.fold_left (fun a r -> a +. f r) 0.0 reps in
  let jobs = sum (fun r -> List.fold_left (fun a row -> a + List.length row.cells) 0 r.rows) in
  let busy =
    sumf (fun r ->
        List.fold_left
          (fun a row ->
            List.fold_left
              (fun a c ->
                match c.status with
                | Done j when not c.cached -> a +. j.Ita_dse.Job.elapsed
                | _ -> a)
              a row.cells)
          0.0 r.rows)
  in
  let wall = sumf (fun r -> r.wall_s) in
  let preflight_s = lint_s *. float_of_int (sum (fun r -> List.length r.rows)) in
  let executed = sum (fun r -> r.executed) in
  let workers = float_of_int nproc in
  let hits = sum (fun r -> r.cache_hits) and misses = sum (fun r -> r.cache_misses) in
  ( float_of_int jobs /. wall,
    float_of_int hits /. float_of_int (max 1 (hits + misses)),
    ((wall -. preflight_s) *. workers -. busy)
    /. float_of_int (max 1 executed) *. 1000.0 )

(* The exact workload sends no DSE jobs; the DSE layer is replayed on
   its cells: each cell a one-candidate space swept with the cheap
   techniques into a fresh cache, then swept again from it. *)
let dse_replay cells =
  let dir = Filename.concat !work_dir "dse-replay-cache" in
  Workloads.remove_tree dir;
  let cache = Ita_dse.Cache.create ~dir in
  let reps =
    List.concat_map
      (fun (i : cell_input) ->
        let space =
          Ita_dse.Space.make ~name:(Expected.cell_name i.cell) ~base:i.sys ~axes:[]
        in
        List.init 2 (fun _ ->
            Span.record ~query:(-1) "dse.replay" (fun () ->
                Ita_dse.Explore.run ~isolation:`Processes ~jobs:nproc
                  ~timeout_s:600.0 ~cache ~budget:dse_budget space
                  ~techniques:[ Ita_dse.Job.Sim; Ita_dse.Job.Symta ]
                  ~scenario:i.cell.Expected.scenario
                  ~requirement:i.cell.Expected.requirement)))
      cells
  in
  Workloads.remove_tree dir;
  reps

let traced () =
  let input = ref None in
  ignore (setup_time (fun () -> input := Some (setup ())));
  let input = Option.get !input in
  (* forking is only allowed before the first extra domain is spawned,
     so the DSE layer's replay on the cells comes first *)
  let cell_dse_reps =
    match input with Cells cells -> dse_replay cells | Dse _ -> []
  in
  let k = Replay.counts () in
  let certify = match input with Cells _ -> true | Dse _ -> false in
  let replay_query id q =
    match Span.record ~query:id "query" (fun () -> Replay.path k ~id ~certify q) with
    | Some r -> Replay.extras k ~id ~seed:!seed ~certified:certify q r
    | None -> ()
  in
  (* the traced pass: on the cells, their paths through the layers
     (each followed by the replay of the layers it skips, outside the
     timed "query" spans); on the DSE, the two sweeps *)
  let traced_pass () =
    match input with
    | Cells cells ->
        List.iteri
          (fun id (i : cell_input) ->
            replay_query id
              { (Replay.of_cell i) with expected_us = Some (expect i.cell).wcrt_us })
          cells;
        let wall =
          List.fold_left
            (fun a (s : Span.t) -> if s.Span.name = "query" then a +. Span.duration s else a)
            0.0 (Span.all ())
        in
        (wall, [], cell_dse_reps)
    | Dse d ->
        let (qs, reps), wall =
          Stat.time (fun () ->
              Span.record ~query:0 "pass" (fun () ->
                  run_dse ~work_dir:!work_dir ~shift_us:(dse_shift_us ())
                    ~wrap:(fun name f -> Span.record ~query:0 name f)
                    d))
        in
        (wall, qs, reps)
  in
  (* the untraced baseline is the mean of one pass before and one after
     the traced pass, so a drift of the host's speed cancels; a first,
     discarded pass fills the heap the way later passes find it *)
  ignore (run_pass input);
  let before_qs, before = Stat.time (fun () -> run_pass input) in
  let traced_wall, traced_qs, dse_reps = traced_pass () in
  let after_qs, after = Stat.time (fun () -> run_pass input) in
  let base_wall = (before +. after) /. 2.0 in
  let base_qs = before_qs @ after_qs in
  (* the DSE's mc jobs, replayed in process for the front-end and
     exploration figures; spawns domains, so after every fork *)
  (match input with
  | Dse d ->
      List.iteri
        (fun i (c : Ita_dse.Space.candidate) ->
          replay_query (i + 1)
            {
              Replay.qname = Ita_dse.Space.label c;
              sys = c.Ita_dse.Space.sys;
              scenario;
              requirement;
              expected_us = None;
            })
        (Ita_dse.Space.candidates d.warm)
  | Cells _ -> ());
  let per name = Span.total name /. float_of_int (max 1 (Span.count name)) in
  let jobs_per_s, hit_rate, dispatch_ms = dse_figures ~lint_s:(per "lint") dse_reps in
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  let ns s ops = s /. float_of_int (max 1 ops) *. 1e9 in
  let all_qs = base_qs @ traced_qs in
  let replay_failed = List.sort_uniq compare (List.map fst k.Replay.failures) in
  let attempted = List.length all_qs + k.Replay.queries in
  let nfailed = List.length (failed all_qs) + List.length replay_failed in
  context ();
  Printf.printf "untraced passes %.3f and %.3f s, traced pass %.3f s\n" before after
    traced_wall;
  print_failures all_qs;
  List.iter (fun (q, m) -> Printf.printf "FAIL %s: %s\n" q m) k.Replay.failures;
  if k.Replay.pairs = 0 then
    print_endline
      "unavailable: dbm.subset_ns, dbm.le_lu_ns - every antichain holds one \
       zone, no pair to time";
  print_endline
    "unavailable: antichain probe/insert time, interning, shard-lock waits - inside \
     Reach.explore, which exposes no hook; they are part of reach.s";
  print_endline
    (match input with
    | Cells _ ->
        "replayed only (not in wall_s): lint, rtc, symta, sim, dse.*, the \
         sup-query at nproc domains"
    | Dse _ ->
        "replayed only (not in wall_s): cert_emit, cert_check, the sup-query \
         at nproc domains; gen/flow/slice/reach are the mc jobs replayed in \
         process");
  if !trace_out <> "" then begin
    let oc = open_out !trace_out in
    Span.to_json oc;
    close_out oc;
    Printf.printf "spans written to %s\n" !trace_out
  end;
  print_result ~attempted ~failed:nfailed
    [
      ("gen.ms", "ms", per "gen" *. 1000.0);
      ("flow.ms", "ms", per "flow" *. 1000.0);
      ("slice.ms", "ms", per "slice" *. 1000.0);
      ( "slice.clocks_ratio",
        "ratio",
        k.Replay.clocks_ratio_sum /. float_of_int (max 1 k.Replay.queries) );
      ("lint.ms", "ms", per "lint" *. 1000.0);
      ("reach.s", "s", k.Replay.reach_self_s);
      ("reach.explored", "count", float_of_int k.Replay.explored);
      ("reach.stored", "count", float_of_int k.Replay.stored);
      ("reach.transitions", "count", float_of_int k.Replay.transitions);
      ("reach.expand_per_store", "ratio", ratio k.Replay.explored k.Replay.stored);
      ("reach.par_explored_ratio", "ratio", ratio k.Replay.par_explored k.Replay.explored);
      ("reach.steals", "count", float_of_int k.Replay.steals);
      ("wcrt.ceiling_retries", "count", float_of_int k.Replay.retries);
      ("antichain.len_mean", "zones", ratio k.Replay.zones k.Replay.states);
      ("antichain.len_max", "zones", float_of_int k.Replay.len_max);
      ("antichain.pairs", "count", float_of_int k.Replay.pairs);
      ( "succ.us_per_zone",
        "us",
        k.Replay.succ_s /. float_of_int (max 1 k.Replay.succ_zones) *. 1e6 );
      ("succ.fanout", "ratio", ratio k.Replay.succ_out k.Replay.succ_zones);
      ("dbm.subset_ns", "ns", ns k.Replay.subset_s k.Replay.subset_ops);
      ("dbm.le_lu_ns", "ns", ns k.Replay.le_lu_s k.Replay.le_lu_ops);
      ("dbm.extrapolate_lu_ns", "ns", ns k.Replay.extra_s k.Replay.extra_ops);
      ("cert_emit.s", "s", Span.total "cert_emit");
      ("cert.entries", "count", float_of_int k.Replay.cert_entries);
      ("cert_check.s", "s", Span.total "cert_check");
      ("cert_check.zones", "count", float_of_int k.Replay.cert_zones);
      ("rtc.ms_per_job", "ms", per "rtc" *. 1000.0);
      ("symta.ms_per_job", "ms", per "symta" *. 1000.0);
      ("sim.ms_per_job", "ms", per "sim" *. 1000.0);
      ("dse.jobs_per_s", "1/s", jobs_per_s);
      ("dse.cache_hit_rate", "ratio", hit_rate);
      ("dse.dispatch_ms_per_job", "ms", dispatch_ms);
      ("trace.overhead_ratio", "ratio", (traced_wall -. base_wall) /. base_wall);
    ]

(* ---- self-test: the gates must be able to fail ---- *)

let self_test_run () =
  let ok = ref true in
  let expect_ name cond =
    Printf.printf "%s %s\n" (if cond then "ok  " else "FAIL") name;
    if not cond then ok := false
  in
  let c = List.hd Expected.exact_cells in
  let sys = Ita_casestudy.Radionav.system c.combo c.column in
  let r =
    Ita_core.Analyze.wcrt ~order ~abstraction ~reduction ~bounds ~domains:1
      ~slicing ~certify:true sys ~scenario:c.scenario ~requirement:c.requirement
  in
  expect_ "right expectation passes" (Expected.check_exact c r = None);
  expect_ "wrong expectation fails"
    (Expected.check_exact { c with wcrt_us = c.wcrt_us + 1 } r <> None);
  expect_ "missing certificate fails"
    (Expected.check_exact c { r with certified = None } <> None);
  let open Ita_dse.Job in
  let b mc sim symta rtc = Expected.check_bounds ~mc ~sim ~symta ~rtc in
  expect_ "consistent engines pass" (b (Exact 100) (Lower 90) (Upper 120) (Upper 130) = None);
  expect_ "mc below simulation fails" (b (Exact 100) (Lower 101) (Upper 120) (Upper 130) <> None);
  expect_ "mc above SymTA/S fails" (b (Exact 100) (Lower 90) (Upper 99) (Upper 130) <> None);
  expect_ "mc above RTC fails" (b (Exact 100) (Lower 90) (Upper 120) (Upper 99) <> None);
  expect_ "failed mc fails" (b (Failed "x") (Lower 90) (Upper 120) (Upper 130) <> None);
  exit (if !ok then 0 else 1)

let () =
  Arg.parse (Arg.align speclist) (fun a -> raise (Arg.Bad a)) "bench.exe [options]";
  if !self_test then self_test_run ()
  else if !trace = 1 then traced ()
  else untraced ()

(* tamc: a small standalone model checker for .ta files — check the
   file's reach/sup/deadlock queries (optionally emitting verdict
   certificates), certify a previously emitted certificate with the
   independent checker, or dump the parsed network. *)

open Cmdliner
module Reach = Ita_mc.Reach
module Wcrt = Ita_mc.Wcrt
module Check = Ita_mc.Check
module Cert = Ita_cert.Cert
module Cert_emit = Ita_mc.Cert_emit
module E = Ita_tafmt.Elaborate

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.ta")

let load ?validate path =
  try Ok (E.load_file ?validate path) with
  | E.Elab_error { pos = Some { line; col }; message } ->
      Error (Printf.sprintf "%s:%d:%d: %s" path line col message)
  | E.Elab_error { pos = None; message } ->
      Error (Printf.sprintf "%s: %s" path message)
  | Ita_tafmt.Parser.Parse_error { line; message } ->
      Error (Printf.sprintf "%s:%d: %s" path line message)
  | Ita_tafmt.Lexer.Lex_error { line; message } ->
      Error (Printf.sprintf "%s:%d: %s" path line message)
  | Ita_ta.Network.Invalid_model m ->
      Error (Printf.sprintf "%s: invalid model: %s" path m)

let pp_property net ppf = function
  | E.Reach_q q -> Format.fprintf ppf "reach %a" (Ita_mc.Query.pp net) q
  | E.Sup_q { clock; at } ->
      Format.fprintf ppf "sup %s at %a"
        net.Ita_ta.Network.clock_names.(clock)
        (Ita_mc.Query.pp net) at
  | E.Deadlock_q -> Format.pp_print_string ppf "deadlock"

(* the verdict line (plus the witness under --trace) that completes the
   header [run_check] printed *)
let pp_verdict net ~trace = function
  | Check.Reach_result (Reach.Reachable { witness; stats; _ }) ->
      Format.printf "REACHABLE (%a)@." Reach.pp_stats stats;
      if trace then Reach.pp_witness net Format.std_formatter witness
  | Check.Reach_result (Reach.Unreachable stats) ->
      Format.printf "unreachable (%a)@." Reach.pp_stats stats
  | Check.Sup_result (Wcrt.Sup { value; kind; stats }) ->
      Format.printf "%d%s (%a)@." value
        (match kind with
        | Wcrt.Attained -> ""
        | Wcrt.Approached -> " (approached)")
        Reach.pp_stats stats
  | Check.Reach_result (Reach.Budget_exhausted stats)
  | Check.Deadlock_result (Check.Deadlock_budget_exhausted stats) ->
      Format.printf "UNKNOWN: budget exhausted (%a)@." Reach.pp_stats stats
  | Check.Sup_result (Wcrt.Sup_budget_exhausted { observed; stats }) ->
      Format.printf "UNKNOWN: budget exhausted (saw %s; %a)@."
        (match observed with Some v -> string_of_int v | None -> "nothing")
        Reach.pp_stats stats
  | Check.Sup_result (Wcrt.Goal_unreachable stats) ->
      Format.printf "location unreachable (%a)@." Reach.pp_stats stats
  | Check.Sup_result (Wcrt.Sup_unbounded { ceiling; stats }) ->
      Format.printf "unbounded (beyond %d; %a)@." ceiling Reach.pp_stats stats
  | Check.Deadlock_result (Check.Deadlock_at st) ->
      Format.printf "DEADLOCK at ";
      Ita_ta.Semantics.pp_state net Format.std_formatter st;
      Format.printf "@."
  | Check.Deadlock_result (Check.Deadlock_free stats) ->
      Format.printf "deadlock-free (%a)@." Reach.pp_stats stats

(* the verdicts a certificate exists for; the "not certified" note
   follows these and precedes every other verdict line *)
let certifiable = function
  | Check.Reach_result (Reach.Reachable _ | Reach.Unreachable _)
  | Check.Sup_result (Wcrt.Sup _) ->
      true
  | _ -> false

(* a verdict that is neither definite nor a runtime error: exit 2 *)
let inconclusive = function
  | Check.Reach_result (Reach.Budget_exhausted _)
  | Check.Sup_result (Wcrt.Sup_unbounded _ | Wcrt.Sup_budget_exhausted _)
  | Check.Deadlock_result (Check.Deadlock_budget_exhausted _) ->
      true
  | _ -> false

let run_check path order budget trace domains abstraction slicing cert_out =
  match load path with
  | Error m ->
      prerr_endline m;
      1
  | Ok { E.net; queries; _ } ->
      if queries = [] then begin
        print_endline "no queries in file";
        0
      end
      else begin
        let budget =
          match budget with
          | None -> Reach.no_budget
          | Some n -> Reach.states n
        in
        let cert = cert_out <> None in
        let note i why =
          if cert then Format.printf "query %d: note: %s, not certified@." i why
        in
        let failed = ref 0 and runtime_errors = ref 0 and certs = ref [] in
        List.iteri
          (fun i q ->
            Format.printf "query %d: %a ... @?" i (pp_property net) q;
            (* an update leaving its variable's declared range aborts only
               the query that explores it, as a runtime-error verdict *)
            match
              Check.run ~order ~budget ~abstraction ?domains ~slicing ~cert
                ~index:i net q
            with
            | verdict, certificate ->
                if inconclusive verdict then incr failed;
                let record () =
                  match certificate with
                  | Ok qc -> certs := qc :: !certs
                  | Error why -> note i why
                in
                if certifiable verdict then begin
                  pp_verdict net ~trace verdict;
                  record ()
                end
                else begin
                  record ();
                  pp_verdict net ~trace verdict
                end
            | exception Ita_ta.Update.Out_of_range { var; value } ->
                incr runtime_errors;
                let lo, hi = net.Ita_ta.Network.var_ranges.(var) in
                Format.printf
                  "RUNTIME ERROR: update sets %s to %d, outside its declared \
                   range [%d, %d]@."
                  net.Ita_ta.Network.var_names.(var) value lo hi;
                note i "runtime error")
          queries;
        (match cert_out with
        | None -> ()
        | Some path ->
            let t = Cert_emit.make net (List.rev !certs) in
            Cert.save path t;
            Format.printf "wrote %d certificate(s) to %s@."
              (List.length !certs) path);
        if !runtime_errors > 0 then 1 else if !failed > 0 then 2 else 0
      end

let check_cmd =
  let budget =
    Arg.(value & opt (some int) None & info [ "budget-states" ] ~doc:"state cap")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"print witness traces")
  in
  let cert_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "cert" ]
          ~doc:
            "write an independently checkable certificate for every \
             certified verdict to $(docv); verify it with $(b,tamc \
             certify)"
          ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"run the queries of a .ta file")
    Term.(
      const run_check $ file_arg $ Knobs.order_arg $ budget $ trace
      $ Knobs.domains_arg $ Knobs.abstraction_arg $ Knobs.slicing_arg
      $ cert_out)

(* certify: re-elaborate the model from source and verify a previously
   emitted certificate with the independent checker ([Ita_cert]).
   Exit codes: 0 = everything certified; 1 = I/O or usage errors; 3-9 =
   the first failed obligation ([Cert.exit_code]): format 3,
   fingerprint 4, mask 5, initiation 6, consecution 7, judgment 8,
   witness 9. *)

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let run_certify path cert_path json =
  match load path with
  | Error m ->
      prerr_endline m;
      1
  | Ok { E.net; queries; _ } -> (
      match Cert.load cert_path with
      | Error f ->
          if json then
            Printf.printf
              "{\"certificate\": %s, \"fingerprint-ok\": false, \
               \"results\": [{\"status\": \"failed\", \"obligation\": %s, \
               \"detail\": %s}]}\n"
              (json_string cert_path)
              (json_string (Cert.obligation_name f.Cert.obligation))
              (json_string f.Cert.message)
          else
            Printf.printf "FAILED [%s] %s\n"
              (Cert.obligation_name f.Cert.obligation)
              f.Cert.message;
          Cert.exit_code f.Cert.obligation
      | Ok t ->
          let fp_ok = Cert.fingerprint net = t.Cert.fingerprint in
          let queries = Array.of_list queries in
          let results =
            if not fp_ok then []
            else
              List.map
                (fun (qc : Cert.query_cert) ->
                  let i = qc.Cert.index in
                  let mismatch m =
                    Error { Cert.obligation = Cert.Format; message = m }
                  in
                  let r =
                    if i < 0 || i >= Array.length queries then
                      mismatch
                        (Printf.sprintf "the model has no query %d" i)
                    else
                      let q = queries.(i) in
                      let kind_matches =
                        match (q, qc.Cert.verdict) with
                        | E.Reach_q _, (Cert.Unreachable | Cert.Reachable _) ->
                            true
                        | E.Sup_q { clock; _ }, Cert.Sup { clock = c; _ } ->
                            c = clock
                        | _ -> false
                      in
                      match Check.goal q with
                      | None -> mismatch "deadlock queries have no certificates"
                      | Some _ when not kind_matches ->
                          mismatch
                            "the certified verdict does not match the query's \
                             kind"
                      | Some goal -> Cert.check net ~goal qc
                  in
                  (i, r))
                t.Cert.queries
          in
          if json then begin
            let result_json (i, r) =
              match r with
              | Ok (st : Cert.stats) ->
                  Printf.sprintf
                    "{\"query\": %d, \"status\": \"ok\", \"states\": %d, \
                     \"zones\": %d}"
                    i st.Cert.checked_states st.Cert.checked_zones
              | Error (f : Cert.failure) ->
                  Printf.sprintf
                    "{\"query\": %d, \"status\": \"failed\", \"obligation\": \
                     %s, \"detail\": %s}"
                    i
                    (json_string (Cert.obligation_name f.Cert.obligation))
                    (json_string f.Cert.message)
            in
            Printf.printf
              "{\"certificate\": %s, \"fingerprint-ok\": %b, \"results\": \
               [%s]}\n"
              (json_string cert_path) fp_ok
              (String.concat ", " (List.map result_json results))
          end
          else begin
            if not fp_ok then
              Printf.printf
                "FAILED [fingerprint] the certificate was produced for a \
                 different model\n"
            else
              List.iter
                (fun (i, r) ->
                  match r with
                  | Ok (st : Cert.stats) ->
                      if st.Cert.checked_states = 0 then
                        Printf.printf "query %d: certified (witness replay)\n"
                          i
                      else
                        Printf.printf
                          "query %d: certified (%d states, %d successor \
                           checks)\n"
                          i st.Cert.checked_states st.Cert.checked_zones
                  | Error (f : Cert.failure) ->
                      Printf.printf "query %d: FAILED [%s] %s\n" i
                        (Cert.obligation_name f.Cert.obligation)
                        f.Cert.message)
                results
          end;
          if not fp_ok then Cert.exit_code Cert.Fingerprint
          else
            let first_failure =
              List.find_map
                (fun (_, r) ->
                  match r with
                  | Ok _ -> None
                  | Error (f : Cert.failure) -> Some f.Cert.obligation)
                results
            in
            (match first_failure with
            | Some o -> Cert.exit_code o
            | None -> 0))

let certify_cmd =
  let cert_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "cert" ] ~doc:"the certificate file to verify" ~docv:"FILE")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"machine-readable verdict on stdout instead of the human format")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "verify a certificate emitted by $(b,tamc check --cert) with the \
          independent checker: the model is re-elaborated from source and \
          every stored invariant is re-validated with naive reference \
          semantics, sharing no exploration code with the engine")
    Term.(const run_certify $ file_arg $ cert_arg $ json)

let run_show path =
  match load path with
  | Error m ->
      prerr_endline m;
      1
  | Ok { E.net; _ } ->
      Ita_ta.Pretty.pp_network Format.std_formatter net;
      Format.print_newline ();
      0

let show_cmd =
  Cmd.v
    (Cmd.info "show" ~doc:"print the parsed network")
    Term.(const run_show $ file_arg)

(* lint: run the static analyzer on the file's network, mapping each
   finding back to its declaration's source position.  The file is
   elaborated without the builder's urgent/broadcast guard checks so
   those turn into diagnostics instead of a hard failure. *)

module D = Ita_analysis.Diagnostic
module Lint = Ita_analysis.Lint

(* map diagnostic sites to source positions through the elaborator's
   source map; shared by lint (file:line:col prefixes, deterministic
   ordering) and flow (per-location annotations) *)
let site_pos (srcmap : E.srcmap) = function
  | D.Automaton_site i -> Some srcmap.E.proc_pos.(i)
  | D.Location_site { comp; loc } -> Some srcmap.E.loc_pos.(comp).(loc)
  | D.Edge_site { comp; edge } -> Some srcmap.E.edge_pos.(comp).(edge)
  | D.Network_site | D.Clock_site _ | D.Var_site _ | D.Channel_site _ -> None

let run_lint path fail_on json =
  match load ~validate:false path with
  | Error m ->
      prerr_endline m;
      1
  | Ok { E.net; queries; srcmap } ->
      (* what the file's queries observe is watched from outside the
         model: it feeds the cone pass and is never unused or dead *)
      let { Ita_analysis.Slice.g_comps; g_clocks; g_vars } =
        Check.observed queries
      in
      let findings =
        Lint.run ~observed_comps:g_comps ~observed_clocks:g_clocks
          ~observed_vars:g_vars net
      in
      let pos_str { Ita_tafmt.Ast.line; col } =
        Printf.sprintf "%s:%d:%d" path line col
      in
      let resolve site = Option.map pos_str (site_pos srcmap site) in
      let pos site =
        Option.map
          (fun { Ita_tafmt.Ast.line; col } -> (line, col))
          (site_pos srcmap site)
      in
      if json then print_string (Lint.to_json ~resolve ~pos net findings)
      else Lint.pp_report ~resolve ~pos net Format.std_formatter findings;
      if
        List.exists
          (fun (d : D.t) -> D.compare_severity d.D.severity fail_on >= 0)
          findings
      then 1
      else 0

let lint_cmd =
  let fail_on =
    Arg.(
      value
      & opt Knobs.severity_conv D.Error
      & info [ "fail-on" ]
          ~doc:"lowest severity that makes the exit code nonzero \
                (hint/info/warning/error)")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"machine-readable report on stdout instead of the human format")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"static well-formedness analysis of a .ta file's network")
    Term.(const run_lint $ file_arg $ fail_on $ json)

(* flow: print the abstract-interpretation results — per-location
   variable intervals (with source positions) and the inferred global
   ranges. *)

let run_flow path =
  match load path with
  | Error m ->
      prerr_endline m;
      1
  | Ok { E.net; srcmap; _ } ->
      let fa = Ita_analysis.Flow.analyze net in
      let pos_str { Ita_tafmt.Ast.line; col } =
        Printf.sprintf "%s:%d:%d" path line col
      in
      let resolve = function
        | `Automaton i -> Some (pos_str srcmap.E.proc_pos.(i))
        | `Location (i, l) -> Some (pos_str srcmap.E.loc_pos.(i).(l))
      in
      Ita_analysis.Flow.pp ~resolve fa Format.std_formatter ();
      0

let flow_cmd =
  Cmd.v
    (Cmd.info "flow"
       ~doc:
         "abstract-interpretation dataflow analysis of a .ta file: \
          per-location variable intervals and global ranges")
    Term.(const run_flow $ file_arg)

(* slice: report what the query-directed reduction removes or merges,
   each removal mapped back to its declaration's source position. *)

let run_slice path slicing =
  match load path with
  | Error m ->
      prerr_endline m;
      1
  | Ok { E.net; queries; srcmap } ->
      let pos_str { Ita_tafmt.Ast.line; col } =
        Printf.sprintf "%s:%d:%d" path line col
      in
      let resolve site = Option.map pos_str (site_pos srcmap site) in
      if queries = [] then begin
        print_endline "no queries in file";
        0
      end
      else begin
        List.iteri
          (fun i q ->
            Format.printf "query %d: %a" i (pp_property net) q;
            match q with
            | E.Deadlock_q ->
                Format.printf " — whole-network property, not sliced@."
            | E.Reach_q _ | E.Sup_q _ ->
                Format.printf "@.";
                Ita_analysis.Slice.pp_report ~resolve Format.std_formatter
                  (Ita_analysis.Slice.make ~mode:slicing net
                     (Check.observed [ q ])))
          queries;
        0
      end

let slice_cmd =
  Cmd.v
    (Cmd.info "slice"
       ~doc:
         "report the query-directed model reduction: components, clocks \
          and variables outside each query's cone of influence, \
          quasi-equal clock merges and dead edges, with source positions")
    Term.(const run_slice $ file_arg $ Knobs.slicing_arg)

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "tamc" ~doc:"timed-automata model checker for .ta files")
          [ check_cmd; certify_cmd; show_cmd; slice_cmd; lint_cmd; flow_cmd ]))

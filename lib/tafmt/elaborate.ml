open Ita_ta

exception Elab_error of { pos : Ast.pos option; message : string }

type query = Ita_mc.Check.property =
  | Reach_q of Ita_mc.Query.t
  | Sup_q of { clock : Guard.clock; at : Ita_mc.Query.t }
  | Deadlock_q

type srcmap = {
  proc_pos : Ast.pos array;
  loc_pos : Ast.pos array array;
  edge_pos : Ast.pos array array;
}

type t = { net : Network.t; queries : query list; srcmap : srcmap }

let err fmt =
  Printf.ksprintf (fun message -> raise (Elab_error { pos = None; message })) fmt

(* A clock constant beyond [Bound.max_constant] would wrap around the
   zone encoding and silently corrupt verdicts, so it is rejected where
   it is written; a bound expression counts with its largest magnitude
   over the declared variable [ranges].  Queries carry no source
   position: [pos = None] marks a query constant. *)
let check_constant ranges pos e =
  let lo, hi = Expr.interval ranges e in
  let c = if abs lo > abs hi then lo else hi in
  let m = Ita_dbm.Bound.max_constant in
  if abs c > m then
    raise
      (Elab_error
         {
           pos;
           message =
             Printf.sprintf
               "%sclock constant %d is outside the supported range [-%d, %d]"
               (if pos = Option.None then "query " else "")
               c m m;
         })

let check_guard ranges pos (g : Guard.t) =
  List.iter (fun (a : Guard.atom) -> check_constant ranges pos a.Guard.bound)
    g.Guard.clocks

let check_update ranges pos (u : Update.t) =
  List.iter
    (function
      | Update.Reset_clock (_, e) -> check_constant ranges pos e
      | Update.Set_var _ -> ())
    u

type names = {
  clocks : (string, Guard.clock) Hashtbl.t;
  vars : (string, Expr.var) Hashtbl.t;
  chans : (string, Channel.id) Hashtbl.t;
}

let resolve_kind names id =
  match Hashtbl.find_opt names.clocks id with
  | Some c -> `Clock c
  | None -> (
      match Hashtbl.find_opt names.vars id with
      | Some v -> `Var v
      | None -> `Unknown)

(* Integer expressions: clocks are not values here. *)
let rec iexp names = function
  | Ast.Int n -> Expr.Int n
  | Ast.Ident id -> (
      match resolve_kind names id with
      | `Var v -> Expr.Var v
      | `Clock _ -> err "clock %s used as an integer value" id
      | `Unknown -> err "unknown identifier %s" id)
  | Ast.Binop (op, a, b) ->
      let a = iexp names a and b = iexp names b in
      (match op with
      | Ast.Add -> Expr.Add (a, b)
      | Ast.Sub -> Expr.Sub (a, b)
      | Ast.Mul -> Expr.Mul (a, b)
      | Ast.Div -> Expr.Div (a, b))
  | Ast.Neg a -> Expr.Neg (iexp names a)
  | Ast.Cmp _ | Ast.And _ | Ast.Or _ | Ast.Not _ | Ast.Bool _ ->
      err "boolean expression in integer position"

let rec bexp names = function
  | Ast.Bool true -> Expr.True
  | Ast.Bool false -> Expr.False
  | Ast.Cmp (op, a, b) ->
      let op' =
        match op with
        | Ast.Eq -> Expr.Eq
        | Ast.Ne -> Expr.Ne
        | Ast.Lt -> Expr.Lt
        | Ast.Le -> Expr.Le
        | Ast.Gt -> Expr.Gt
        | Ast.Ge -> Expr.Ge
      in
      Expr.Cmp (op', iexp names a, iexp names b)
  | Ast.And (a, b) -> Expr.And (bexp names a, bexp names b)
  | Ast.Or (a, b) -> Expr.Or (bexp names a, bexp names b)
  | Ast.Not a -> Expr.Not (bexp names a)
  | Ast.Int _ | Ast.Ident _ | Ast.Binop _ | Ast.Neg _ ->
      err "integer expression in boolean position"

let is_clock names = function
  | Ast.Ident id -> (
      match resolve_kind names id with `Clock c -> Some c | _ -> None)
  | _ -> None

let clock_rel_of = function
  | Ast.Lt -> Guard.Lt
  | Ast.Le -> Guard.Le
  | Ast.Gt -> Guard.Gt
  | Ast.Ge -> Guard.Ge
  | Ast.Eq -> Guard.Eq
  | Ast.Ne -> err "clocks cannot be compared with !="

let mirror = function
  | Guard.Lt -> Guard.Gt
  | Guard.Le -> Guard.Ge
  | Guard.Gt -> Guard.Lt
  | Guard.Ge -> Guard.Le
  | Guard.Eq -> Guard.Eq

(* Guards are conjunctions whose atoms may constrain clocks; clock
   atoms under ||, ! or in non-atomic positions are rejected. *)
let rec guard names = function
  | Ast.And (a, b) -> Guard.conj (guard names a) (guard names b)
  | Ast.Cmp (op, a, b) as e -> (
      match (is_clock names a, is_clock names b) with
      | Some _, Some _ -> err "difference constraints between clocks are not supported"
      | Some c, None ->
          Guard.clock_rel c (clock_rel_of op) (iexp names b)
      | None, Some c ->
          Guard.clock_rel c (mirror (clock_rel_of op)) (iexp names a)
      | None, None -> Guard.data (bexp names e))
  | e ->
      (* no clock atom may hide under disjunction or negation *)
      let rec check = function
        | Ast.Cmp (_, a, b) ->
            if is_clock names a <> None || is_clock names b <> None then
              err "clock constraints must appear as conjunction atoms"
        | Ast.And (a, b) | Ast.Or (a, b) ->
            check a;
            check b
        | Ast.Not a | Ast.Neg a -> check a
        | Ast.Binop (_, a, b) ->
            check a;
            check b
        | Ast.Int _ | Ast.Ident _ | Ast.Bool _ -> ()
      in
      check e;
      Guard.data (bexp names e)

let update names (assigns : Ast.assign_decl list) =
  List.map
    (fun { Ast.target; value } ->
      match resolve_kind names target with
      | `Clock c -> Update.Reset_clock (c, iexp names value)
      | `Var v -> Update.Set_var (v, iexp names value)
      | `Unknown -> err "unknown assignment target %s" target)
    assigns

(* Query predicates additionally allow [Process.Location] atoms. *)
let split_loc_atom id =
  match String.index_opt id '.' with
  | Some i ->
      Some (String.sub id 0 i, String.sub id (i + 1) (String.length id - i - 1))
  | None -> None

let query_of names net e =
  let locs = ref [] in
  let rec strip = function
    | Ast.And (a, b) -> Ast.And (strip a, strip b)
    | Ast.Ident id as e -> (
        match split_loc_atom id with
        | Some (p, l) ->
            let comp =
              try Network.component_index net p
              with Not_found -> err "unknown process %s" p
            in
            let loc =
              try Automaton.find_location net.Network.automata.(comp) l
              with Not_found -> err "unknown location %s.%s" p l
            in
            locs := (comp, loc) :: !locs;
            Ast.Bool true
        | None -> e)
    | e -> e
  in
  let e = strip e in
  let g = guard names e in
  check_guard net.Network.var_ranges Option.None g;
  { Ita_mc.Query.comp_locs = List.rev !locs; guard = g }

let elaborate ?(validate = true) (decls : Ast.t) =
  let b = Network.Builder.create () in
  let names =
    {
      clocks = Hashtbl.create 8;
      vars = Hashtbl.create 8;
      chans = Hashtbl.create 8;
    }
  in
  (* first pass: declarations *)
  List.iter
    (function
      | Ast.Clocks cs ->
          List.iter
            (fun c -> Hashtbl.replace names.clocks c (Network.Builder.clock b c))
            cs
      | Ast.Var { var_name; lo; hi; init } ->
          Hashtbl.replace names.vars var_name
            (Network.Builder.int_var b var_name ~lo ~hi ~init)
      | Ast.Chan { chan_name; broadcast; urgent } ->
          let kind = if broadcast then Channel.Broadcast else Channel.Binary in
          Hashtbl.replace names.chans chan_name
            (Network.Builder.channel b chan_name kind ~urgent)
      | Ast.Process _ | Ast.Query _ -> ())
    decls;
  let ranges =
    Array.of_list
      (List.filter_map
         (function Ast.Var { lo; hi; _ } -> Some (lo, hi) | _ -> Option.None)
         decls)
  in
  (* second pass: processes *)
  List.iter
    (function
      | Ast.Process p ->
          let loc_index = Hashtbl.create 8 in
          List.iteri
            (fun i (l : Ast.loc_decl) ->
              if Hashtbl.mem loc_index l.Ast.loc_name then
                err "%s: duplicate location %s" p.Ast.proc_name l.Ast.loc_name;
              Hashtbl.replace loc_index l.Ast.loc_name i)
            p.Ast.locs;
          let locations =
            List.map
              (fun (l : Ast.loc_decl) ->
                {
                  Automaton.loc_name = l.Ast.loc_name;
                  invariant =
                    (match l.Ast.loc_inv with
                    | None -> Guard.tt
                    | Some e ->
                        let g = guard names e in
                        check_guard ranges (Some l.Ast.loc_pos) g;
                        g);
                  kind =
                    (match l.Ast.loc_kind with
                    | `Normal -> Automaton.Normal
                    | `Urgent -> Automaton.Urgent
                    | `Committed -> Automaton.Committed);
                })
              p.Ast.locs
          in
          let initials =
            List.filter (fun (l : Ast.loc_decl) -> l.Ast.loc_init) p.Ast.locs
          in
          let initial =
            match initials with
            | [ l ] -> Hashtbl.find loc_index l.Ast.loc_name
            | [] -> err "%s: no init location" p.Ast.proc_name
            | _ -> err "%s: multiple init locations" p.Ast.proc_name
          in
          let chan id =
            match Hashtbl.find_opt names.chans id with
            | Some c -> c
            | None -> err "unknown channel %s" id
          in
          let loc id =
            match Hashtbl.find_opt loc_index id with
            | Some i -> i
            | None -> err "%s: unknown location %s" p.Ast.proc_name id
          in
          let edges =
            List.map
              (fun (e : Ast.edge_decl) ->
                let u = update names e.Ast.edge_updates in
                let g =
                  match e.Ast.edge_guard with
                  | None -> Guard.tt
                  | Some g -> guard names g
                in
                check_guard ranges (Some e.Ast.edge_pos) g;
                check_update ranges (Some e.Ast.edge_pos) u;
                {
                  Automaton.src = loc e.Ast.edge_src;
                  dst = loc e.Ast.edge_dst;
                  guard = g;
                  sync =
                    (match e.Ast.edge_sync with
                    | Ast.No_sync -> Automaton.NoSync
                    | Ast.Send c -> Automaton.Send (chan c)
                    | Ast.Recv c -> Automaton.Recv (chan c));
                  update = u;
                })
              p.Ast.edges
          in
          Network.Builder.add_automaton b
            (Automaton.make ~name:p.Ast.proc_name ~locations ~edges ~initial)
      | Ast.Clocks _ | Ast.Var _ | Ast.Chan _ | Ast.Query _ -> ())
    decls;
  let net = Network.Builder.build ~validate b in
  (* automata were added in declaration order, so srcmap indices line
     up with the network's component/location/edge indices *)
  let procs =
    List.filter_map
      (function Ast.Process p -> Some p | _ -> Option.None)
      decls
  in
  let srcmap =
    {
      proc_pos =
        Array.of_list (List.map (fun (p : Ast.process_decl) -> p.Ast.proc_pos) procs);
      loc_pos =
        Array.of_list
          (List.map
             (fun (p : Ast.process_decl) ->
               Array.of_list
                 (List.map (fun (l : Ast.loc_decl) -> l.Ast.loc_pos) p.Ast.locs))
             procs);
      edge_pos =
        Array.of_list
          (List.map
             (fun (p : Ast.process_decl) ->
               Array.of_list
                 (List.map (fun (e : Ast.edge_decl) -> e.Ast.edge_pos) p.Ast.edges))
             procs);
    }
  in
  (* third pass: queries, which need the finished network *)
  let queries =
    List.filter_map
      (function
        | Ast.Query Ast.Deadlock -> Some Deadlock_q
        | Ast.Query (Ast.Reach e) -> Some (Reach_q (query_of names net e))
        | Ast.Query (Ast.Sup { sup_clock; sup_at }) ->
            let clock =
              match Hashtbl.find_opt names.clocks sup_clock with
              | Some c -> c
              | None -> err "unknown clock %s" sup_clock
            in
            Some (Sup_q { clock; at = query_of names net sup_at })
        | Ast.Clocks _ | Ast.Var _ | Ast.Chan _ | Ast.Process _ -> None)
      decls
  in
  { net; queries; srcmap }

let load_file ?validate path = elaborate ?validate (Parser.parse_file path)

type t = {
  automata : Automaton.t array;
  clock_names : string array;
  var_names : string array;
  var_ranges : (int * int) array;
  var_init : int array;
  channels : Channel.t array;
  lbase : int array;
  ubase : int array;
  lloc : int array array array;
  uloc : int array array array;
  active : bool array array array;
  pinned : bool array;
}

exception Invalid_model of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid_model s)) fmt
let n_clocks net = Array.length net.clock_names - 1
let n_components net = Array.length net.automata

(* Constants beyond [Bound.max_constant] would overflow the zone
   encoding. *)
let check_constant clock_names x c =
  if c > Ita_dbm.Bound.max_constant then
    invalid "clock %s: constant %d exceeds the supported magnitude %d"
      clock_names.(x) c Ita_dbm.Bound.max_constant

let bump_clock_bound net x c =
  check_constant net.clock_names x c;
  let lbase = Array.copy net.lbase and ubase = Array.copy net.ubase in
  lbase.(x) <- max lbase.(x) c;
  ubase.(x) <- max ubase.(x) c;
  let pinned = Array.copy net.pinned in
  pinned.(x) <- true;
  { net with lbase; ubase; pinned }

let index_of name arr =
  let found = ref (-1) in
  Array.iteri (fun i n -> if n = name && !found < 0 then found := i) arr;
  if !found < 0 then raise Not_found else !found

let component_index net name =
  index_of name (Array.map (fun (a : Automaton.t) -> a.name) net.automata)

let clock_index net name = index_of name net.clock_names
let var_index net name = index_of name net.var_names

let pp_locs net ppf locs =
  Array.iteri
    (fun i l ->
      if i > 0 then Format.fprintf ppf " | ";
      let a = net.automata.(i) in
      Format.fprintf ppf "%s.%s" a.Automaton.name
        (Automaton.location a l).Automaton.loc_name)
    locs

module Builder = struct
  type network = t

  type b = {
    mutable clocks : string list;  (* reversed *)
    mutable vars : (string * int * int * int) list;  (* reversed *)
    mutable chans : Channel.t list;  (* reversed *)
    mutable autos : Automaton.t list;  (* reversed *)
  }

  let create () = { clocks = [ "t0" ]; vars = []; chans = []; autos = [] }

  let clock b name =
    if List.mem name b.clocks then invalid "duplicate clock %s" name;
    b.clocks <- name :: b.clocks;
    List.length b.clocks - 1

  let int_var b name ~lo ~hi ~init =
    if List.exists (fun (n, _, _, _) -> n = name) b.vars then
      invalid "duplicate variable %s" name;
    if not (lo <= init && init <= hi) then
      invalid "variable %s: init %d outside [%d, %d]" name init lo hi;
    b.vars <- (name, lo, hi, init) :: b.vars;
    List.length b.vars - 1

  let channel b name kind ~urgent =
    if List.exists (fun (c : Channel.t) -> c.name = name) b.chans then
      invalid "duplicate channel %s" name;
    b.chans <- { Channel.name; kind; urgent } :: b.chans;
    List.length b.chans - 1

  let add_automaton b a = b.autos <- a :: b.autos

  (* Static checks: see the interface. *)
  let validate_sync ~channels (a : Automaton.t) =
    let check_edge (e : Automaton.edge) =
      let has_clock_guard = e.guard.Guard.clocks <> [] in
      match e.sync with
      | Automaton.NoSync -> ()
      | Automaton.Send c | Automaton.Recv c ->
          let ch : Channel.t = channels.(c) in
          if ch.urgent && has_clock_guard then
            invalid "%s: clock guard on urgent channel %s" a.name ch.name;
          if
            ch.kind = Channel.Broadcast && has_clock_guard
            && e.sync = Automaton.Recv c
          then
            invalid "%s: clock guard on broadcast receiver %s" a.name ch.name
    in
    Array.iter check_edge a.edges

  let build ?(validate = true) b =
    let clock_names = Array.of_list (List.rev b.clocks) in
    let vars = Array.of_list (List.rev b.vars) in
    let var_names = Array.map (fun (n, _, _, _) -> n) vars in
    let var_ranges = Array.map (fun (_, lo, hi, _) -> (lo, hi)) vars in
    let var_init = Array.map (fun (_, _, _, i) -> i) vars in
    let channels = Array.of_list (List.rev b.chans) in
    let automata = Array.of_list (List.rev b.autos) in
    if validate then Array.iter (validate_sync ~channels) automata;
    (* Location-based clock activity (Daws-Yovine): backward fixpoint
       per automaton.  active(l) = tested(l) + union over outgoing
       edges e of (tested-by-guard(e) + (active(dst e) minus resets
       of e)). *)
    let n_clocks = Array.length clock_names in
    let guard_clocks (g : Guard.t) =
      List.map (fun (a : Guard.atom) -> a.Guard.clock) g.Guard.clocks
    in
    let reset_clocks (u : Update.t) =
      List.filter_map
        (function
          | Update.Reset_clock (x, _) -> Some x
          | Update.Set_var _ -> None)
        u
    in
    let activity_of (a : Automaton.t) =
      let nl = Array.length a.Automaton.locations in
      let active = Array.init nl (fun _ -> Array.make n_clocks false) in
      let changed = ref true in
      while !changed do
        changed := false;
        Array.iteri
          (fun l (loc : Automaton.location) ->
            let mark x =
              if not active.(l).(x) then begin
                active.(l).(x) <- true;
                changed := true
              end
            in
            List.iter mark (guard_clocks loc.Automaton.invariant);
            List.iter
              (fun ei ->
                let e = a.Automaton.edges.(ei) in
                List.iter mark (guard_clocks e.Automaton.guard);
                let resets = reset_clocks e.Automaton.update in
                Array.iteri
                  (fun x act ->
                    if act && x > 0 && not (List.mem x resets) then mark x)
                  active.(e.Automaton.dst))
              (Automaton.out_edges a l))
          a.Automaton.locations
      done;
      active
    in
    let active = Array.map activity_of automata in
    (* Separate lower/upper maximal constants (for Extra+LU), resolved
       per automaton location by a backward fixpoint in the style of
       [activity_of]: a location's bound for a clock covers every
       constant the clock can still be compared against before its next
       reset along that component.  Lower-bound atoms ([x >(=) c]) feed
       L, upper-bound atoms and invariants feed U, [==] feeds both;
       reset magnitudes are kept in both.  Per-state bounds are the max
       over components, which is sound for networks (any future guard is
       some component's future guard). *)
    let reset_magnitudes (upd : Update.t) =
      List.filter_map
        (function
          | Update.Reset_clock (x, e) ->
              let lo, hi = Expr.interval var_ranges e in
              Some (x, max (abs lo) (abs hi))
          | Update.Set_var _ -> None)
        upd
    in
    let lu_of (a : Automaton.t) =
      let nl = Array.length a.Automaton.locations in
      let l = Array.init nl (fun _ -> Array.make n_clocks 0) in
      let u = Array.init nl (fun _ -> Array.make n_clocks 0) in
      let changed = ref true in
      let bump arr li x c =
        if c > arr.(li).(x) then begin
          arr.(li).(x) <- c;
          changed := true
        end
      in
      let scan_atoms li (g : Guard.t) =
        List.iter
          (fun (at : Guard.atom) ->
            let lo, hi = Expr.interval var_ranges at.Guard.bound in
            let c = max (abs lo) (abs hi) in
            match at.Guard.rel with
            | Guard.Ge | Guard.Gt -> bump l li at.Guard.clock c
            | Guard.Le | Guard.Lt -> bump u li at.Guard.clock c
            | Guard.Eq ->
                bump l li at.Guard.clock c;
                bump u li at.Guard.clock c)
          g.Guard.clocks
      in
      while !changed do
        changed := false;
        Array.iteri
          (fun li (loc : Automaton.location) ->
            scan_atoms li loc.Automaton.invariant;
            List.iter
              (fun ei ->
                let e = a.Automaton.edges.(ei) in
                scan_atoms li e.Automaton.guard;
                List.iter
                  (fun (x, c) ->
                    bump l li x c;
                    bump u li x c)
                  (reset_magnitudes e.Automaton.update);
                let resets = reset_clocks e.Automaton.update in
                for x = 1 to n_clocks - 1 do
                  if not (List.mem x resets) then begin
                    bump l li x l.(e.Automaton.dst).(x);
                    bump u li x u.(e.Automaton.dst).(x)
                  end
                done)
              (Automaton.out_edges a li))
          a.Automaton.locations
      done;
      (* fall back to per-network (one shared row) when the
         location-resolved table would be large: the lookup stays O(1)
         and memory stays bounded for generated giants *)
      if nl * n_clocks > 65536 then begin
        let lmax = Array.make n_clocks 0 and umax = Array.make n_clocks 0 in
        Array.iter
          (fun row ->
            Array.iteri (fun x c -> if c > lmax.(x) then lmax.(x) <- c) row)
          l;
        Array.iter
          (fun row ->
            Array.iteri (fun x c -> if c > umax.(x) then umax.(x) <- c) row)
          u;
        (Array.make nl lmax, Array.make nl umax)
      end
      else (l, u)
    in
    let lu = Array.map lu_of automata in
    (* every guard, invariant and reset constant of a clock lands in
       some location's L or U row, so the row maxima bound them all *)
    let row_max x m rows =
      Array.fold_left (fun m row -> max m row.(x)) m rows
    in
    for x = 1 to n_clocks - 1 do
      check_constant clock_names x
        (Array.fold_left (fun m (l, u) -> row_max x (row_max x m l) u) 0 lu)
    done;
    {
      automata;
      clock_names;
      var_names;
      var_ranges;
      var_init;
      channels;
      lbase = Array.make n_clocks 0;
      ubase = Array.make n_clocks 0;
      lloc = Array.map fst lu;
      uloc = Array.map snd lu;
      active;
      pinned = Array.make n_clocks false;
    }
end

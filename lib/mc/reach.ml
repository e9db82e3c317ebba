open Ita_ta
module Dbm = Ita_dbm.Dbm
module Prng = Ita_util.Prng

type order = Bfs | Dfs | Random_dfs of int
type budget = { max_states : int option; max_seconds : float option }

let no_budget = { max_states = None; max_seconds = None }
let states n = { max_states = Some n; max_seconds = None }

type abstraction = Semantics.abstraction = ExtraLU | LuSim
type reduction = Semantics.reduction = Active
type bounds = Flow

module Slice = Ita_analysis.Slice

type slicing = Slice.mode = Off | CoiMerge

type stats = {
  explored : int;
  stored : int;
  transitions : int;
  elapsed : float;
  domains : int;
  steals : int;
  subsumed_lusim : int;
}

type step = { via : Semantics.label option; state : Semantics.state }

type outcome =
  | Reachable of { witness : step list; goal_zone : Dbm.t; stats : stats }
  | Unreachable of stats
  | Budget_exhausted of stats

(* The pure parsers are exposed for the command-line converters, the
   environment fallback below and the unit tests. *)

let parse_domains s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Ok n
  | Some _ | None -> Error "expected a positive integer"

(* One name per knob position: the parsers below accept exactly these
   (case-insensitively), and the CLIs and the DSE cache key print them. *)
let order_name = function Bfs -> "bfs" | Dfs -> "dfs" | Random_dfs _ -> "rdfs"
let abstraction_name = function ExtraLU -> "extralu" | LuSim -> "lusim"

let slicing_name = function Off -> "off" | CoiMerge -> "coimerge"

let parse_named name values s =
  let key = String.lowercase_ascii (String.trim s) in
  match List.find_opt (fun v -> name v = key) values with
  | Some v -> Ok v
  | None ->
      Error ("valid values: " ^ String.concat ", " (List.map name values))

(* [rdfs] carries seed 1; ranav threads its [--seed] in afterwards *)
let parse_order = parse_named order_name [ Bfs; Dfs; Random_dfs 1 ]
let parse_abstraction = parse_named abstraction_name [ ExtraLU; LuSim ]
let parse_slicing = parse_named slicing_name [ Off; CoiMerge ]

(* The number of worker domains when the caller does not say: the
   TAMC_DOMAINS environment variable (so CI can run the whole test suite
   at any worker count) or the machine's core count.  It is an operator
   knob, not an API: a blank value falls back like an unset one, and an
   unrecognised one too — but loudly, on stderr, naming the valid
   values, so a typo cannot silently invalidate a whole CI leg. *)
let default_domains () =
  let cores () = max 1 (Domain.recommended_domain_count ()) in
  match Sys.getenv_opt "TAMC_DOMAINS" with
  | None -> cores ()
  | Some s when String.trim s = "" -> cores ()
  | Some s -> (
      match parse_domains s with
      | Ok n -> n
      | Error err ->
          Printf.eprintf
            "tamc: warning: TAMC_DOMAINS=%S ignored (%s); using the \
             machine's core count\n%!"
            s err;
          cores ())

(* Discrete states are interned under a packed key: locations and
   variables bit-packed into a short int array, each variable in
   exactly the bits its (declared or flow-inferred) range needs.  The
   packing is injective over in-range states, so exploration counts are
   independent of the bound source; a value outside its inferred range
   — impossible if the dataflow analysis is sound, since the runtime
   already confines variables to their declared ranges — fails fast
   rather than corrupting the passed list. *)
module Packed_key = struct
  type t = int array

  let equal = (( = ) : int array -> int array -> bool)
  let hash (a : int array) = Hashtbl.hash a
end

module H = Hashtbl.Make (Packed_key)

let bits_needed n =
  let rec go b v = if v = 0 then b else go (b + 1) (v lsr 1) in
  go 0 n

let make_packer (net : Network.t) ranges =
  let nc = Array.length net.Network.automata in
  let nv = Array.length ranges in
  let loc_bits =
    Array.map
      (fun (a : Automaton.t) ->
        bits_needed (Array.length a.Automaton.locations - 1))
      net.Network.automata
  in
  let var_bits = Array.map (fun (lo, hi) -> bits_needed (hi - lo)) ranges in
  (* fields never straddle a word boundary, so the word count must come
     from the same greedy layout the packer uses, not from ceil(total/62) *)
  let words =
    let word = ref 0 and used = ref 0 in
    let account bits =
      if bits > 0 then begin
        if !used + bits > 62 then begin
          incr word;
          used := 0
        end;
        used := !used + bits
      end
    in
    Array.iter account loc_bits;
    Array.iter account var_bits;
    !word + 1
  in
  fun (st : Semantics.state) ->
    let out = Array.make words 0 in
    let word = ref 0 and used = ref 0 in
    let push bits v =
      if bits > 0 then begin
        if !used + bits > 62 then begin
          incr word;
          used := 0
        end;
        out.(!word) <- out.(!word) lor (v lsl !used);
        used := !used + bits
      end
    in
    for i = 0 to nc - 1 do
      push loc_bits.(i) st.Semantics.locs.(i)
    done;
    for v = 0 to nv - 1 do
      let lo, hi = ranges.(v) in
      let x = st.Semantics.env.(v) in
      if x < lo || x > hi then
        failwith
          (Printf.sprintf
             "Reach: variable %s = %d escapes its inferred range [%d, %d] \
              (dataflow soundness violation)"
             net.Network.var_names.(v) x lo hi);
      push var_bits.(v) (x - lo)
    done;
    out

(* One zone of the passed list.  [pruned] is set when the antichain
   drops the slot, so a waiting node backed by it is skipped at pop time
   in O(1).  The probe reads [pruned] without the shard lock: a stale
   read can only let an already-pruned zone be expanded once more, which
   costs redundant work but never soundness (its successors are subsumed
   by the pruner's). *)
type slot = { zone : Dbm.t; mutable pruned : bool }

let dead_slot = { zone = Dbm.zero 0; pruned = true }

(* The passed list stores, per discrete state, the antichain of maximal
   zones seen so far, in a growable array scanned without allocating.
   [canon] is the interned discrete state: every later configuration
   with an equal state is rewritten to share it physically, so one hash
   lookup per successor replaces the former find-per-probe pattern.
   [lu] is the per-state L/U bound pair when the antichain order is the
   a◁LU simulation ([LuSim]) — every zone filed under this entry shares
   the discrete state, hence the L/U vectors, so they are resolved once
   at entry creation and [None] means plain DBM inclusion. *)
type entry = {
  canon : Semantics.state;
  mutable slots : slot array;
  mutable len : int;
  lu : (int array * int array) option;
}

let entry_of lu_of passed key (st : Semantics.state) =
  match H.find_opt passed key with
  | Some e -> e
  | None ->
      let e = { canon = st; slots = [||]; len = 0; lu = lu_of st } in
      H.add passed key e;
      e

(* The antichain order: plain canonical-DBM inclusion, or a◁LU
   simulation subsumption on the unextrapolated zones. *)
let zle e (z : Dbm.t) (z' : Dbm.t) =
  match e.lu with
  | None -> Dbm.subset z z'
  | Some (l, u) -> Dbm.le_lu l u z z'

let subsumed_in e (z : Dbm.t) =
  let i = ref 0 and hit = ref false in
  while (not !hit) && !i < e.len do
    if zle e z e.slots.(!i).zone then hit := true;
    incr i
  done;
  !hit

(* Insert [z], pruning stored zones it subsumes.  [resident] tracks the
   true passed-list population for the final stats. *)
let store_in e (z : Dbm.t) resident =
  let keep = ref 0 in
  for i = 0 to e.len - 1 do
    let s = e.slots.(i) in
    if zle e s.zone z then begin
      s.pruned <- true;
      decr resident
    end
    else begin
      e.slots.(!keep) <- s;
      incr keep
    end
  done;
  e.len <- !keep;
  let s = { zone = z; pruned = false } in
  if e.len = Array.length e.slots then begin
    let cap = max 4 (2 * e.len) in
    let slots = Array.make cap s in
    Array.blit e.slots 0 slots 0 e.len;
    e.slots <- slots
  end;
  e.slots.(e.len) <- s;
  e.len <- e.len + 1;
  incr resident;
  s

let dump_table passed acc =
  H.fold
    (fun _ e acc ->
      (e.canon, List.init e.len (fun i -> e.slots.(i).zone)) :: acc)
    passed acc

(* Certificates and differential tests need the dumped passed list to
   be byte-stable across domain counts, schedules and hash-table layouts:
   sort the entries by discrete state and each antichain by the stable
   zone order. *)
let sorted_dump l =
  List.map
    (fun ((st : Semantics.state), zs) -> (st, List.sort Dbm.compare zs))
    l
  |> List.sort (fun ((a : Semantics.state), _) ((b : Semantics.state), _) ->
         Stdlib.compare
           (a.Semantics.locs, a.Semantics.env)
           (b.Semantics.locs, b.Semantics.env))

type engine_result =
  | Goal_found of step list * Dbm.t * stats
  | Space_exhausted of stats
  | Out_of_budget of stats

(* A worker's waiting list: a mutex-protected circular buffer.  Its
   owner takes from the end the search order names ([take_oldest] under
   [Bfs], [take_newest] under [Dfs]/[Random_dfs]); thieves always take
   the oldest node — near the root, likely a large subtree. *)
module Deque = struct
  type 'a t = {
    lock : Mutex.t;
    mutable buf : 'a option array;
    mutable head : int;
    mutable len : int;
  }

  let create () =
    {
      lock = Mutex.create ();
      buf = Array.make 64 None;
      head = 0;
      len = 0;
    }

  let push t x =
    Mutex.lock t.lock;
    let cap = Array.length t.buf in
    if t.len = cap then begin
      let buf = Array.make (2 * cap) None in
      for i = 0 to t.len - 1 do
        buf.(i) <- t.buf.((t.head + i) mod cap)
      done;
      t.buf <- buf;
      t.head <- 0
    end;
    t.buf.((t.head + t.len) mod Array.length t.buf) <- Some x;
    t.len <- t.len + 1;
    Mutex.unlock t.lock

  let take_newest t =
    Mutex.lock t.lock;
    let r =
      if t.len = 0 then None
      else begin
        let i = (t.head + t.len - 1) mod Array.length t.buf in
        let x = t.buf.(i) in
        t.buf.(i) <- None;
        t.len <- t.len - 1;
        x
      end
    in
    Mutex.unlock t.lock;
    r

  let take_oldest t =
    Mutex.lock t.lock;
    let r =
      if t.len = 0 then None
      else begin
        let x = t.buf.(t.head) in
        t.buf.(t.head) <- None;
        t.head <- (t.head + 1) mod Array.length t.buf;
        t.len <- t.len - 1;
        x
      end
    in
    Mutex.unlock t.lock;
    r
end

type shard = { s_lock : Mutex.t; s_table : entry H.t; s_resident : int ref }

(* Waiting nodes carry parent pointers: witness reconstruction needs no
   synchronisation. *)
type node = {
  config : Semantics.config;
  parent : node option;
  via : Semantics.label option;
  slot : slot;  (* the stored zone backing this waiting entry *)
}

type stop =
  | Found of node * Dbm.t
  | Budget
  | Crashed of exn * Printexc.raw_backtrace

exception Halt

let n_shards = 64

let witness n =
  let rec go n acc =
    match n with
    | None -> acc
    | Some p ->
        go p.parent ({ via = p.via; state = p.config.Semantics.state } :: acc)
  in
  go (Some n) []

(* The exploration engine.  The passed list is split into [n_shards]
   shards keyed by the packed-state hash, each an independent
   mutex-protected antichain table with its own resident counter; the
   subsumption probe and the insert happen under one lock acquisition,
   so two domains racing on comparable zones can never both store
   (which would double-count [stored] and leave a non-antichain passed
   list).  States enter the passed list when pushed (not when popped):
   later duplicates are subsumed away before they ever occupy a waiting
   list, and a pushed state whose zone got pruned by a larger newcomer
   is skipped at pop time — the newcomer covers its successors.

   Each of the [domains] workers owns a {!Deque}; worker 0 runs in the
   caller and the others are spawned domains, so [~domains:1] spawns
   none and is a plain FIFO (BFS) or LIFO (DFS) loop — with worker 0's
   [Random_dfs] seed being the order's own seed, its counts, witnesses
   and probes are those of a sequential search.  Termination is a
   global count of pushed-but-not-yet-expanded nodes: a worker only
   quits when every deque it probed was empty and that count is zero.

   Determinism: successor computation is a pure function of the popped
   configuration, and zone storage is monotone — a zone is dropped only
   when a superset zone is (already or concurrently) stored.  The fully
   explored passed list is therefore the set of maximal zones of the
   closure of the initial configuration under successors, independent
   of exploration order, so verdicts, WCRT suprema, final antichain
   contents and the final [stored] count are the same at any domain
   count.  [explored]/[transitions] are schedule-dependent beyond one
   domain (two domains may both expand a zone that one of them later
   prunes) and are reported as observed. *)
let run_engine ~order ~budget ~abstraction ~lu_of ~domains net ~ranges ~goal
    ~on_store =
  let t0 = Unix.gettimeofday () in
  let pack = make_packer net ranges in
  let shards =
    Array.init n_shards (fun _ ->
        {
          s_lock = Mutex.create ();
          s_table = H.create 256;
          s_resident = ref 0;
        })
  in
  let deques = Array.init domains (fun _ -> Deque.create ()) in
  let take_own =
    match order with
    | Bfs -> Deque.take_oldest
    | Dfs | Random_dfs _ -> Deque.take_newest
  in
  let stop : stop option Atomic.t = Atomic.make None in
  let pending = Atomic.make 0 in
  let explored = Atomic.make 0 in
  let transitions = Array.make domains 0 in
  let steals = Array.make domains 0 in
  let lusim = Array.make domains 0 in
  (* serialises user callbacks: [on_store] consumers (sup tracking,
     deadlock probes) stay race-free without changing their API *)
  let cb_lock = Mutex.create () in
  let halt r =
    ignore (Atomic.compare_and_set stop None (Some r));
    raise Halt
  in
  let over_budget e =
    (match budget.max_states with Some m -> e >= m | None -> false)
    || match budget.max_seconds with
       | Some s -> Unix.gettimeofday () -. t0 > s
       | None -> false
  in
  let add w via parent (c : Semantics.config) =
    match goal c with
    | Some gz ->
        halt (Found ({ config = c; parent; via; slot = dead_slot }, gz))
    | None ->
        let key = pack c.Semantics.state in
        let sh = shards.(Packed_key.hash key land (n_shards - 1)) in
        Mutex.lock sh.s_lock;
        let e = entry_of lu_of sh.s_table key c.Semantics.state in
        if subsumed_in e c.Semantics.zone then begin
          Mutex.unlock sh.s_lock;
          if e.lu <> None then lusim.(w) <- lusim.(w) + 1
        end
        else begin
          (* intern the discrete state: revisits of this entry now share
             it physically, so equality short-circuits on [==] *)
          let c =
            if c.Semantics.state == e.canon then c
            else { c with Semantics.state = e.canon }
          in
          let s = store_in e c.Semantics.zone sh.s_resident in
          Mutex.unlock sh.s_lock;
          Mutex.lock cb_lock;
          (match on_store c with
          | () -> Mutex.unlock cb_lock
          | exception ex ->
              Mutex.unlock cb_lock;
              raise ex);
          Atomic.incr pending;
          Deque.push deques.(w) { config = c; parent; via; slot = s }
        end
  in
  let process w rng (n : node) =
    if not n.slot.pruned then begin
      let e = 1 + Atomic.fetch_and_add explored 1 in
      if over_budget e then halt Budget;
      let succs =
        Array.of_list (Semantics.successors ~abstraction net n.config)
      in
      (match rng with Some g -> Prng.shuffle g succs | None -> ());
      Array.iter
        (fun (label, c') ->
          transitions.(w) <- transitions.(w) + 1;
          add w (Some label) (Some n) c')
        succs
    end
  in
  let worker w () =
    let rng =
      match order with
      | Random_dfs seed -> Some (Prng.create (seed + (31 * w)))
      | Bfs | Dfs -> None
    in
    try
      let rec next () =
        if Atomic.get stop <> None then None
        else
          match take_own deques.(w) with
          | Some _ as r -> r
          | None -> (
              let stolen = ref None in
              let i = ref 1 in
              while !stolen = None && !i < domains do
                (match Deque.take_oldest deques.((w + !i) mod domains) with
                | Some _ as r ->
                    steals.(w) <- steals.(w) + 1;
                    stolen := r
                | None -> ());
                incr i
              done;
              match !stolen with
              | Some _ as r -> r
              | None ->
                  if Atomic.get pending = 0 then None
                  else begin
                    Domain.cpu_relax ();
                    next ()
                  end)
      in
      let rec loop () =
        match next () with
        | None -> ()
        | Some n ->
            process w rng n;
            (* decremented only after the node's successors are all
               pushed (and counted), so [pending] can never dip to zero
               while reachable work exists *)
            Atomic.decr pending;
            loop ()
      in
      loop ()
    with
    | Halt -> ()
    | ex ->
        let bt = Printexc.get_raw_backtrace () in
        ignore
          (Atomic.compare_and_set stop None (Some (Crashed (ex, bt))))
  in
  (try
     add 0 None None (Semantics.initial ~abstraction net)
   with Halt -> ());
  if Atomic.get stop = None then begin
    let doms =
      Array.init (domains - 1) (fun i -> Domain.spawn (worker (i + 1)))
    in
    worker 0 ();
    Array.iter Domain.join doms
  end;
  let stats () =
    {
      explored = Atomic.get explored;
      stored = Array.fold_left (fun a sh -> a + !(sh.s_resident)) 0 shards;
      transitions = Array.fold_left ( + ) 0 transitions;
      elapsed = Unix.gettimeofday () -. t0;
      domains;
      steals = Array.fold_left ( + ) 0 steals;
      subsumed_lusim = Array.fold_left ( + ) 0 lusim;
    }
  in
  let dump () =
    sorted_dump
      (Array.fold_left (fun acc sh -> dump_table sh.s_table acc) [] shards)
  in
  match Atomic.get stop with
  | Some (Crashed (e, bt)) -> Printexc.raise_with_backtrace e bt
  | Some (Found (n, gz)) -> (Goal_found (witness n, gz, stats ()), dump)
  | Some Budget -> (Out_of_budget (stats ()), dump)
  | None -> (Space_exhausted (stats ()), dump)

(* Everything certificate emission needs from a completed exploration:
   the slice that translates back to original index space, the network
   the engine actually explored (sliced, flow-refined, query-bumped —
   the per-state LU vectors must come from {e these} tables), and the
   sorted passed-list dump. *)
type snapshot = {
  snap_slice : Slice.t;
  snap_net : Network.t;
  snap_passed : (Semantics.state * Dbm.t list) list;
}

(* Core loop shared by [reach] and [explore].  [goal]
   maps a fresh configuration to its non-empty goal zone when it hits
   the target; goal checking happens at state creation time so that
   counterexamples are found as early as possible (UPPAAL does the
   same).  Returns the result, the passed-list dump thunk and the
   network as explored (after flow refinement). *)
let run ?(order = Bfs) ?(budget = no_budget) ?(abstraction = ExtraLU) ?domains
    net ~goal ~on_store () =
  let domains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  (* the dataflow analysis tightens the per-location L/U clock bounds
     (read by [Semantics.extrapolate]) and shrinks the variable ranges
     the packed state key allots bits to *)
  let fa = Ita_analysis.Flow.analyze net in
  let net = Ita_analysis.Flow.refine_lu fa net in
  let ranges = Ita_analysis.Flow.global_ranges fa in
  (* Under [LuSim] the antichains order zones by a◁LU simulation over
     the per-state L/U constants — resolved against the flow-refined
     [net] above, so the subsumption test and the [ExtraLU]
     extrapolation always read the same bounds *)
  let lu_of =
    match abstraction with
    | LuSim ->
        fun (st : Semantics.state) -> Some (Semantics.lu_bounds net st)
    | ExtraLU -> fun _ -> None
  in
  let result, dump =
    run_engine ~order ~budget ~abstraction ~lu_of ~domains net ~ranges ~goal
      ~on_store
  in
  (result, dump, net)

(* The observation seed of a query's backward cone: its components, the
   clocks its guard tests, the variables it reads. *)
let cone_seed ?(extra_clocks = []) (q : Query.t) : Slice.goal =
  {
    Slice.g_comps = List.map fst q.Query.comp_locs;
    g_clocks =
      extra_clocks
      @ List.map
          (fun (a : Guard.atom) -> a.Guard.clock)
          q.Query.guard.Guard.clocks;
    g_vars =
      Expr.bvars q.Query.guard.Guard.data
      @ List.concat_map
          (fun (a : Guard.atom) -> Expr.ivars a.Guard.bound)
          q.Query.guard.Guard.clocks;
  }

let slice_query mode ?(extra_clocks = []) net (q : Query.t) =
  let sl = Slice.make ~mode net (cone_seed ~extra_clocks q) in
  let q' =
    if sl.Slice.identity then q
    else
      {
        Query.comp_locs =
          List.map
            (fun (ci, li) ->
              match Slice.map_comp sl ci with
              | Some ci' -> (ci', li)
              | None -> assert false (* goal components are kept *))
            q.Query.comp_locs;
        guard = Slice.map_guard sl q.Query.guard;
      }
  in
  (sl, sl.Slice.net, q')

let reach ?order ?budget ?abstraction ?domains ?(slicing = CoiMerge) ?snap net
    (q : Query.t) =
  let sl, net, q = slice_query slicing net q in
  let net =
    List.fold_left
      (fun net (x, c) -> Network.bump_clock_bound net x c)
      net
      (Query.clock_constants net q)
  in
  let goal c =
    Semantics.zone_of_goal net c q.Query.guard ~comp_locs:q.Query.comp_locs
  in
  match
    Slice.unmap_errors sl
      (run ?order ?budget ?abstraction ?domains net ~goal
         ~on_store:(fun _ -> ()))
  with
  | Goal_found (witness, gz, stats), _, _ ->
      let witness =
        List.map
          (fun (st : step) ->
            {
              via = Option.map (Slice.unmap_label sl) st.via;
              state = Slice.unmap_state sl st.state;
            })
          witness
      in
      Reachable { witness; goal_zone = Slice.unmap_zone sl gz; stats }
  | Space_exhausted stats, dump, xnet ->
      (* the verdict is an invariant claim: surface everything a
         certificate needs while the passed list is still alive *)
      (match snap with
      | Some f ->
          f { snap_slice = sl; snap_net = xnet; snap_passed = dump () }
      | None -> ());
      Unreachable stats
  | Out_of_budget stats, _, _ -> Budget_exhausted stats

let explore ?order ?budget ?abstraction ?domains ?(extra_bounds = []) ?snap
    net ~on_store =
  let net =
    List.fold_left
      (fun net (x, c) -> Network.bump_clock_bound net x c)
      net extra_bounds
  in
  match
    run ?order ?budget ?abstraction ?domains net
      ~goal:(fun _ -> None)
      ~on_store ()
  with
  | Goal_found _, _, _ -> assert false
  | Space_exhausted stats, dump, xnet ->
      (match snap with
      | Some f -> f (xnet, dump ())
      | None -> ());
      `Complete stats
  | Out_of_budget stats, _, _ -> `Budget_exhausted stats

let pp_stats ppf s =
  Format.fprintf ppf "explored %d, stored %d, transitions %d, %.3fs"
    s.explored s.stored s.transitions s.elapsed;
  if s.subsumed_lusim > 0 then
    Format.fprintf ppf " (lusim-subsumed %d)" s.subsumed_lusim;
  if s.domains > 1 then
    Format.fprintf ppf " (%d domains, %d steals)" s.domains s.steals

let pp_witness net ppf steps =
  List.iteri
    (fun i { via; state } ->
      (match via with
      | None -> Format.fprintf ppf "@[<h>%3d. (initial) " i
      | Some l ->
          Format.fprintf ppf "@[<h>%3d. [%a] " i (Semantics.pp_label net) l);
      Semantics.pp_state net ppf state;
      Format.fprintf ppf "@]@.")
    steps

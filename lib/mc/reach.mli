(** Forward symbolic reachability: the model checker's engine.

    Explores the zone graph with a passed list keyed on the discrete
    state (zone lists with inclusion subsumption) and a waiting list
    whose discipline is the search order.  [Bfs] gives shortest
    counterexamples; [Dfs] and [Random_dfs] are the paper's "structured
    testing" modes ("df" / "rdf" in Table 1) for finding
    counterexamples — hence WCRT lower bounds — in state spaces too
    large to exhaust. *)

open Ita_ta

type order = Bfs | Dfs | Random_dfs of int  (** seed *)

type abstraction = Semantics.abstraction = ExtraLU | LuSim
    (** Finite abstraction applied to zones (see {!Semantics.abstraction}).
        The default everywhere is [ExtraLU].  Under [LuSim] zones are
        stored unextrapolated and the passed-list antichains subsume
        with the a◁LU simulation test ({!Ita_dbm.Dbm.le_lu}) over the
        same flow-refined per-state L/U constants the [ExtraLU]
        extrapolation reads — strictly coarser pruning, identical
        verdicts and WCRTs, exact goal zones and witness traces. *)

type reduction = Semantics.reduction = Active
    (** Active-clock reduction, always applied (see
        {!Semantics.reduction}).  Kept, like {!bounds}, only so the
        repository benchmark ([perfbench/]) compiles unchanged until it
        moves to one engine configuration record. *)

type bounds = Flow
    (** Source of the per-location L/U extrapolation bounds and of the
        variable ranges behind the packed passed-list key: every
        exploration first runs the abstract-interpretation dataflow
        analysis ({!Ita_analysis.Flow}), which recomputes the clock
        bounds over the live control flow with guard constants
        evaluated under the inferred intervals (never looser than the
        builder's), and packs each variable into exactly its inferred
        range.  The one-constructor type is kept only so the
        repository benchmark ([perfbench/]) compiles unchanged until it
        moves to one engine configuration record. *)

type slicing = Ita_analysis.Slice.mode = Off | CoiMerge
    (** Query-directed model reduction applied before exploration (see
        {!Ita_analysis.Slice}).  The default everywhere is [CoiMerge]:
        components, variables and clocks outside the query's backward
        cone of influence are removed and quasi-equal clocks are
        merged, with byte-identical verdicts and WCRTs.  [Off] is the
        differential-testing oracle. *)

type budget = { max_states : int option; max_seconds : float option }

val parse_domains : string -> (int, string) result
(** Parse a [TAMC_DOMAINS] value: a positive integer.  The
    [Error] carries the valid-value description the warning and the
    CLI converters print. *)

val parse_abstraction : string -> (abstraction, string) result
(** Parse an abstraction name ([extralu] / [lusim], case-insensitive). *)

val parse_slicing : string -> (slicing, string) result
(** Parse a slicing mode ([off] / [coimerge], case-insensitive). *)

val parse_order : string -> (order, string) result
(** Parse a search order ([bfs] / [dfs] / [rdfs], case-insensitive);
    [rdfs] yields [Random_dfs 1]. *)

val order_name : order -> string
val abstraction_name : abstraction -> string

val slicing_name : slicing -> string
(** The names the parsers accept, lower case: what the CLIs print and
    the DSE cache key records. *)

val default_domains : unit -> int
(** Worker-domain count used when a caller passes no [?domains]: the
    [TAMC_DOMAINS] environment variable if set to a positive integer,
    else [Domain.recommended_domain_count ()].  At [1] no worker domain
    is spawned.  An unrecognised value falls back exactly like
    an unset one — to the machine's core count — after a one-line
    stderr warning naming the valid values. *)

val cone_seed :
  ?extra_clocks:Guard.clock list -> Query.t -> Ita_analysis.Slice.goal
(** The seed of the query's backward cone of influence: its
    components, the clocks its guard tests (plus [extra_clocks]) and
    the variables it reads. *)

val slice_query :
  slicing ->
  ?extra_clocks:Guard.clock list ->
  Network.t ->
  Query.t ->
  Ita_analysis.Slice.t * Network.t * Query.t
(** [slice_query mode net q] computes the query-directed reduction of
    [net] from {!cone_seed} (with [extra_clocks], e.g. a measured sup
    clock) and returns the slice, the reduced network and the query
    translated into its index space.  Used by {!reach} and by {!Wcrt};
    exposed for the test suites. *)

val no_budget : budget
val states : int -> budget

type stats = {
  explored : int;
      (** symbolic states popped and expanded.  Schedule-dependent under
          parallel exploration: two domains may both expand a zone one
          of them later prunes. *)
  stored : int;
      (** zones resident in the passed list at the end — zones pruned
          by antichain subsumption are not counted.  Under subset
          subsumption ([ExtraLU]) deterministic at any domain
          count for complete explorations: the subsumption probe and
          insert are atomic per shard, so concurrent comparable inserts
          can never double-count.  Under [LuSim] the simulation
          quasi-order is not antisymmetric — two distinct zones can
          simulate each other, and which representative survives (hence
          the exact count) is schedule-dependent. *)
  transitions : int;  (** symbolic successors computed *)
  elapsed : float;  (** wall-clock seconds *)
  domains : int;
      (** workers used; the caller is one of them, so [1] spawns no
          domain *)
  steals : int;  (** frontier nodes stolen across domains (0 at one domain) *)
  subsumed_lusim : int;
      (** successor configurations discharged by the a◁LU simulation
          test — [0] unless the abstraction is [LuSim].  Like
          [explored], schedule-dependent under parallel exploration. *)
}

type step = {
  via : Semantics.label option;  (** [None] for the initial state *)
  state : Semantics.state;
}

type outcome =
  | Reachable of { witness : step list; goal_zone : Semantics.Dbm.t; stats : stats }
  | Unreachable of stats
  | Budget_exhausted of stats
      (** the goal was not found within the budget: unreachability is
          NOT established. *)

type snapshot = {
  snap_slice : Ita_analysis.Slice.t;
      (** translates states, zones and LU vectors back to the original
          network's index space *)
  snap_net : Network.t;
      (** the network the engine actually explored: sliced,
          flow-refined, clock bounds bumped with the query constants —
          the tables per-state LU vectors must be resolved against *)
  snap_passed : (Semantics.state * Semantics.Dbm.t list) list;
      (** the final passed list, sorted by discrete state with each
          antichain sorted by {!Ita_dbm.Dbm.compare} — byte-stable
          across domain counts and schedules *)
}
(** Everything certificate emission ({!Cert_emit}) needs from a
    completed exploration. *)

val reach :
  ?order:order ->
  ?budget:budget ->
  ?abstraction:abstraction ->
  ?domains:int ->
  ?slicing:slicing ->
  ?snap:(snapshot -> unit) ->
  Network.t ->
  Query.t ->
  outcome
(** The extrapolation constants are bumped with the query's clock
    constants, so checking [y >= C] is sound for any [C].  Under the
    default [ExtraLU] the returned goal zone may be coarser than the
    exact reachable valuations (verdicts are unaffected); pass
    [~abstraction:LuSim] when tight goal-zone bounds matter.

    [?slicing] (default [CoiMerge]) reduces the network to the
    query's cone of influence first; the verdict is unaffected.
    Witnesses, states and the goal zone are translated back to the
    original network's index space: removed components are shown at
    their initial location, removed variables at their initial value,
    removed clocks unconstrained, merged clocks equal to their
    representative.

    [?snap] fires exactly when the verdict is [Unreachable] — the only
    verdict the passed list is an inductive invariant for — with the
    {!snapshot} certificate emission consumes.

    [?domains] (default {!default_domains}) is the number of workers
    exploring over the sharded passed list; the caller is worker 0, so
    [1] spawns no domain.  Each worker takes its own waiting nodes in
    the search order — oldest first under [Bfs], newest first under
    [Dfs]/[Random_dfs] (worker [w] shuffles with seed [seed + 31 * w])
    — and steals the oldest node of another worker when it runs dry.
    At one domain this is exactly a sequential search: [Bfs] witnesses
    are shortest and all counts are deterministic.  Verdicts are
    identical at any domain count; with [d > 1] a [Reachable] witness
    is a valid run but not necessarily shortest, and
    [explored]/[transitions] counts are schedule-dependent.  Budgeted
    multi-domain runs are best-effort: near the budget boundary a run
    may report [Budget_exhausted] where one domain completed, but never
    the converse flip of a definite verdict.

    @raise Ita_ta.Update.Out_of_range when an update takes a variable
    outside its declared range; [var] indexes the original (unsliced)
    network. *)

val explore :
  ?order:order ->
  ?budget:budget ->
  ?abstraction:abstraction ->
  ?domains:int ->
  ?extra_bounds:(Guard.clock * int) list ->
  ?snap:(Network.t * (Semantics.state * Semantics.Dbm.t list) list -> unit) ->
  Network.t ->
  on_store:(Semantics.config -> unit) ->
  [ `Complete of stats | `Budget_exhausted of stats ]
(** Full exploration, calling [on_store] once per non-subsumed symbolic
    state; used by sup-style queries and state-space measurements.
    The [on_store] calls are serialised under a dedicated mutex, so
    single-threaded consumers (sup tracking, deadlock probes) need no
    changes at any domain count.

    [?snap] fires on [`Complete] with the explored (flow-refined,
    bumped) network and the sorted passed list; callers that slice
    themselves ({!Wcrt.sup}) assemble the full {!snapshot} from it. *)

val pp_stats : Format.formatter -> stats -> unit
val pp_witness : Network.t -> Format.formatter -> step list -> unit

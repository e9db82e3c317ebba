(** The sweep driver: enumerate a {!Space.t}, run every (candidate,
    technique) job — memoized through {!Cache}, parallel and
    crash-isolated through {!Pool} — and report a summary table plus
    the Pareto frontier over (WCRT, hardware cost proxy).

    This is the paper's Section 4 workflow as one call: "does the
    product work, given a set of hard resource restrictions?", asked
    of every architecture alternative at once. *)

type status =
  | Done of Job.result
  | Crashed of string
  | Timed_out of float
  | Rejected of string
      (** the candidate's generated network failed the static analyzer
          with an error-severity finding (the message), so no analysis
          job was spent on it *)

type cell = { technique : Job.technique; status : status; cached : bool }
type row = { candidate : Space.candidate; cells : cell list }

type report = {
  space_name : string;
  scenario : string;
  requirement : string;
  deadline_us : int option;  (** the requirement's declared budget *)
  techniques : Job.technique list;
  rows : row list;  (** candidate enumeration order *)
  cache_hits : int;
  cache_misses : int;  (** lookups that missed (0 without a cache) *)
  executed : int;  (** jobs actually run in workers *)
  failed : int;  (** crashed + timed out *)
  rejected : int;  (** candidates screened out by the lint pre-flight *)
  workers : int;  (** forked worker processes *)
  wall_s : float;
}

val run :
  ?isolation:[ `Processes ] ->
  ?jobs:int ->
  ?timeout_s:float ->
  ?cache:Cache.t ->
  ?budget:Job.budget ->
  ?inject_crash:int ->
  Space.t ->
  techniques:Job.technique list ->
  scenario:string ->
  requirement:string ->
  report
(** Every job that misses the cache runs in its own forked child
    ({!Pool.map}): at most [jobs] (default {!Pool.default_jobs}) at a
    time, each killed after [timeout_s] seconds (default: no limit).
    Call it before this process spawns any domain (see {!Pool}).

    [inject_crash i] makes flat job [i] (candidate-major over
    techniques) kill its own worker — the fault-injection hook that
    demonstrates crash isolation end to end; a cached job ignores it.

    [?isolation] is ignored: jobs always run in forked workers.  It
    stays only so the repository benchmark compiles unchanged.
    @raise Not_found on unknown scenario/requirement names.
    @raise Invalid_argument on an empty technique list. *)

val row_wcrt_us : row -> int option
(** The row's best available WCRT figure: an [Exact] value if any
    technique produced one, else the tightest [Upper] bound, else the
    largest [Lower] bound. *)

val feasibility :
  deadline_us:int option -> row -> [ `Feasible | `Infeasible | `Unknown ]
(** Sound verdict against the deadline: [`Feasible] needs an exact
    value or upper bound at or below it, [`Infeasible] an exact value
    above it or a lower bound at or beyond it. *)

val frontier : report -> row list
(** Pareto-optimal rows over (WCRT, {!Space.cost}), restricted to
    rows with a usable WCRT figure. *)

val pp : Format.formatter -> report -> unit
(** Summary table (cached cells marked [*]), throughput line and
    Pareto frontier. *)

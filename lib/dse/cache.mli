(** On-disk memoization of job results, keyed by a digest of the
    candidate model + technique + budget.  Re-running a sweep after
    editing the space only pays for the new candidates — incremental
    design-space exploration.

    One file per entry, written atomically (temp file + rename), so
    concurrent sweeps over the same directory are safe.  Values are
    marshaled; a stale or corrupt entry reads as a miss and is
    overwritten.  The key includes a format version, so changing the
    result type just invalidates old entries instead of misreading
    them. *)

type t

val create : dir:string -> t
(** Creates [dir] (and parents) when missing. *)

val dir : t -> string

val job_key : Job.spec -> string
(** Stable hex digest of everything that determines a job's result:
    the full system model, technique, measured requirement and
    budget. *)

val find : t -> string -> Job.result option

val store : t -> string -> Job.result -> unit

(** Fixed-bucket log-scale histograms for live service latencies.

    Complements {!Telemetry}'s histograms with what a long-running
    service needs: a wider range (2{^0} … 2{^30}, then +inf — byte
    distances across large documents land in real buckets), quantile
    estimation readable mid-run, and cross-thread merging.

    Values are recorded as non-negative {e integers} in a fixed base
    unit (bytes, microseconds); the optional [scale] converts to the
    reported unit on the {e read} path only, so the record path never
    touches a float. Recording is guarded by {!Telemetry.enabled} — when
    the sink is off it is one load and one branch, no allocation.

    Like {!Telemetry}, instances are not thread-safe; a worker thread
    records into a private {!make} scratch instance and {!merge}s it
    into the shared registered one under its own lock. *)

type t

val bucket_count : int
(** [32]: upper bounds 2{^0} … 2{^30}, then +inf. *)

val create : ?help:string -> ?unit_:string -> ?scale:float -> string -> t
(** Register (or retrieve) the histogram [name] in the process-wide
    registry. Name it by the [subsystem/metric] stat convention (e.g.
    ["stage/parse"]). [unit_] is the {e reported} unit (["s"],
    ["bytes"]); [scale] (default [1.0]) multiplies recorded integers
    into that unit on read — a seconds histogram records microseconds
    with [~scale:1e-6]. Registering an existing name returns the
    existing cell (creation-time options are ignored then). *)

val make : ?help:string -> ?unit_:string -> ?scale:float -> string -> t
(** An unregistered scratch instance — a per-thread accumulator to
    {!merge} into a registered one. *)

val registered : unit -> t list
(** Registration order. *)

val find : string -> t option

(** {1 Recording} *)

val record : t -> int -> unit
(** Observe one integer value (clamped at 0). No-op unless
    {!Telemetry.enabled}. *)

val record_seconds : t -> float -> unit
(** Observe a duration in seconds on a microsecond-base histogram; the
    conversion happens after the enabled check, so the disabled path
    does not box. *)

val merge : into:t -> t -> unit
(** Add [src]'s counts into [into]. [src] is unchanged. Unconditional —
    merging drained scratch data must work even after the sink was
    disabled. *)

val reset : t -> unit

val reset_all : unit -> unit
(** Zero every {e registered} histogram. *)

(** {1 Reading} *)

val count : t -> int

val name : t -> string

val help : t -> string

val unit_of : t -> string

val quantile : t -> float -> float
(** Estimated [q]-quantile in reported units: the upper bound of the
    first bucket whose cumulative count reaches [ceil (q * count)].
    Overshoots the true order statistic by strictly less than 2x (the
    +inf bucket reports the exact maximum). [0.] when empty. *)

val p50 : t -> float

val p90 : t -> float

val p99 : t -> float

val max_value : t -> float
(** Exact maximum observed, in reported units ([0.] when empty). *)

val sum : t -> float

val mean : t -> float

type summary = {
  s_name : string;
  s_unit : string;
  s_count : int;
  s_sum : float;
  s_max : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_buckets : (float * int) list;
      (** (upper bound in reported units, cumulative count); the last
          bound is [infinity] *)
}
(** What lands in a report's [service_latency] section
    (see {!Report}). *)

val summary : t -> summary

val summaries : unit -> summary list
(** Summaries of every registered histogram with at least one
    observation, in registration order. *)

val stats : unit -> (string * float) list
(** Key quantiles of every non-empty registered histogram as flat
    report stats: [<name>_p50_<unit>], [<name>_p99_<unit>],
    [<name>_count] — the [_s]/[_bytes] suffixes are what
    [xaos report diff]'s worse-when-larger heuristic keys on. *)

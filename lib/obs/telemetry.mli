(** Zero-cost-when-disabled instrumentation: counters, gauges and
    wall-clock spans behind a process-global sink. Distributions live in
    {!Histogram}, which records behind the same flag.

    The design splits the classic sink interface in two:

    - the {e update path} (what instrumented code calls per event) writes
      into preallocated metric cells and is guarded by a single mutable
      flag — when no sink is installed every operation is one load, one
      branch, no allocation;
    - the {e drain path} (what reports and the Prometheus exposition
      call, once per run) reads the aggregated cells.

    Metric handles are created once, at module-load time of the
    instrumented code, and registered in a process-wide registry keyed by
    name; creating a metric twice returns the same cell. Handles stay
    valid across {!enable}/{!disable}/{!reset} cycles.

    Not thread-safe: the engine is single-threaded per run, and the
    counters are plain mutable ints. *)

(** {1 Sink control} *)

val enable : unit -> unit
(** Install the in-memory aggregation sink: subsequent metric operations
    update their cells. *)

val disable : unit -> unit
(** Remove the sink: subsequent operations are no-ops. Aggregated values
    are kept (drain them before {!reset}). *)

val enabled : unit -> bool
(** The one switch for timing: instrumented code reads {!now} only while
    this holds, and every measured-seconds consumer ({!Histogram},
    {!Attrib} charges, the broker's slow log, {!Flight} spans) reads
    what that code measured. Code that times a loop reads it once per
    document, so the untimed path never touches the clock. *)

val reset : unit -> unit
(** Zero every registered metric (and abandon any open span). *)

val now : unit -> float
(** The clock used for spans, in seconds. Defaults to
    [Unix.gettimeofday]; see {!set_clock}. *)

val set_clock : (unit -> float) -> unit
(** Replace the span clock — deterministic tests inject a fake one. *)

(** {1 Counters} *)

type counter

val counter : ?help:string -> string -> counter
(** Registers (or retrieves) the monotonically increasing counter
    [name]. Prometheus convention: name it [xaos_<subsystem>_<what>_total]. *)

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : ?help:string -> string -> gauge

val set_gauge : gauge -> int -> unit
(** Also tracks the high-water mark, exposed as [<name>_max]. *)

val set_gauge_float : gauge -> float -> unit
(** Gauges are float-backed (ratio gauges need it); {!set_gauge} is
    [set_gauge_float] of the int. Exposition prints integral values
    without a decimal point. *)

val gauge_value : gauge -> int
(** Truncates; see {!gauge_value_float} for the exact value. *)

val gauge_max : gauge -> int

val gauge_value_float : gauge -> float

(** {1 Spans}

    A span accumulates wall-clock durations of a named phase:
    {!enter}/{!leave} bracket one occurrence. Spans are not reentrant —
    the engine's phases are strictly sequential, which is what keeps the
    hot path allocation-free. An unmatched {!leave} (e.g. telemetry
    enabled mid-phase) is ignored. *)

type span

val span : ?help:string -> string -> span

val enter : span -> unit

val leave : span -> unit

val time : span -> (unit -> 'a) -> 'a
(** [enter]/[leave] around a thunk, exception-safe. Allocates a closure:
    for cold phases (compilation, whole runs), not per-event code. *)

type span_summary = {
  span_name : string;
  count : int;
  total_s : float;
  min_s : float;  (** 0 when empty *)
  max_s : float;
}

val span_summary : span -> span_summary

(** {1 Draining} *)

val counters : unit -> (string * int) list
(** Registered counters with nonzero value, in registration order. *)

val gauges : unit -> (string * int) list

val span_summaries : unit -> span_summary list
(** Registered spans with nonzero count, in registration order. *)

val expose : Buffer.t -> unit
(** Prometheus text exposition of the whole registry: [# HELP]/[# TYPE]
    preambles, counters and gauges as single samples, spans as
    [summary] with [_count]/[_sum]. *)

(** {1 GC probes} *)

val sample_gc : unit -> unit
(** Refresh the [gc/*] gauges — minor/major collections, promoted words,
    major-heap words — from {!Gc.quick_stat}. The broker calls this once
    per document; no-op while disabled. The gauges' [_max] high-water
    marks make the per-run peaks visible in the exposition. *)

val with_peak_heap : (unit -> 'a) -> 'a * int
(** Run the thunk while sampling the major-heap size at the end of every
    major collection; returns (result, peak heap {e words} seen). This is
    what "memory use" means for a streaming engine: retention between
    collections, not final live data. Compacts first so earlier garbage
    does not count against the thunk. *)

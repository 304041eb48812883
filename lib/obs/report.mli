(** Versioned, machine-readable run reports.

    One schema serves every producer — [xaos eval --report], the bench
    harness's run reports, the service's and the soak's reports, CI smoke
    runs — so a "before/after" diff of two runs is always a diff of two
    documents with the same shape.

    Schema policy: [schema_version] is bumped on any
    backwards-incompatible change (field removal, type change, meaning
    change); adding optional fields is compatible and does not bump it.
    This build reads only the current version (4). Its [gc], [relevance],
    [service_latency] and [attribution] sections are optional: a report
    carries what its producer measured. {!make} always stamps the current
    version. *)

val schema_version : int
(** Currently [4]. *)

val min_schema_version : int
(** Oldest version this build still reads ([4]: older reports are
    rejected as unsupported). *)

type table = {
  title : string;
  columns : string list;
  rows : string list list;
}
(** A rendered result table (the bench harness records every table it
    prints). Cells are strings — presentation data; numeric series belong
    in [stats] or [snapshots]. *)

type gc_summary = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
  top_heap_words : int;
}

val gc_now : unit -> gc_summary
(** Snapshot of {!Gc.quick_stat}. *)

type relevance = {
  rel_bytes_seen : int;  (** document bytes consumed by the parse *)
  rel_retained_bytes : int;
      (** estimated bytes in live matching structures at end of run *)
  rel_retained_peak_bytes : int;  (** largest retained figure observed *)
  rel_elements_total : int;
  rel_elements_stored : int;
  rel_ratio : float;
      (** [retained_peak_bytes / bytes_seen] — the paper's
          relevant-fraction space claim, measured *)
}
(** Relevance-ratio accounting (schema v2): how much of the document the
    engine actually held, against how much streamed past. *)

val relevance_of :
  bytes_seen:int -> retained_bytes:int -> retained_peak_bytes:int ->
  elements_total:int -> elements_stored:int -> relevance
(** Build a section, deriving [rel_ratio] ([0.] when [bytes_seen = 0]). *)

type attrib_entry = {
  ae_key : string;  (** subscription id the costs are charged to *)
  ae_docs : int;  (** run outcomes charged (one per document routed) *)
  ae_events : int;  (** parse events delivered to this subscription *)
  ae_match_s : float;  (** match time spent, seconds *)
  ae_structures : int;  (** matching structures created, summed *)
  ae_live_peak : int;  (** max live structures over any one document *)
  ae_retained_peak_bytes : int;
      (** max retained bytes over any one document *)
  ae_emissions : int;  (** result items emitted *)
  ae_faults : int;  (** budget/deadline/engine faults charged *)
}
(** One subscription's cost account (schema v4). *)

type attribution = {
  at_subscriptions : int;
      (** accounts in the registry — may exceed [List.length at_top] *)
  at_docs : int;
  at_events : int;
  at_match_s : float;
  at_structures : int;
  at_emissions : int;
  at_faults : int;
  at_top : attrib_entry list;  (** descending by [ae_match_s] *)
}
(** Per-subscription cost attribution (schema v4): registry-wide totals
    plus the top accounts by match time. *)

type t = {
  version : int;
  kind : string;  (** producer: ["eval"], ["bench"], … *)
  created_at : float;  (** Unix seconds *)
  config : (string * Json.t) list;  (** what was run, and how *)
  stats : (string * float) list;  (** scalar results, by stable name *)
  spans : Telemetry.span_summary list;
  snapshots : Snapshot.point list;
  tables : table list;
  gc : gc_summary option;
  relevance : relevance option;
  service_latency : Histogram.summary list;
      (** schema v3: histogram summaries of the service's per-stage and
          emission latencies; empty list = section absent *)
  attribution : attribution option;
      (** schema v4: per-subscription cost accounts *)
}

val make :
  ?config:(string * Json.t) list ->
  ?stats:(string * float) list ->
  ?spans:Telemetry.span_summary list ->
  ?snapshots:Snapshot.point list ->
  ?tables:table list ->
  ?gc:gc_summary ->
  ?relevance:relevance ->
  ?service_latency:Histogram.summary list ->
  ?attribution:attribution ->
  kind:string ->
  unit ->
  t
(** A report stamped with {!schema_version} and the current time. *)

val to_json : t -> Json.t

val point_to_json : Snapshot.point -> Json.t
(** One snapshot point as the same object that appears in [snapshots] —
    reused by the CLI to stream points as NDJSON during a run. *)

val of_json : Json.t -> (t, string) result
(** Strict decode: missing required fields, wrong types, or an
    unsupported [version] are errors. *)

val validate : Json.t -> (unit, string) result
(** {!of_json} plus semantic checks: snapshot series monotone in bytes,
    span counts positive, relevance quantities consistent,
    service-latency histograms well-formed (monotone cumulative buckets
    summing to the count, monotone quantiles), and attribution accounts
    non-negative with top entries sorted by match time. What the CI
    smoke-bench job runs. *)

val to_string : t -> string

val write : string -> t -> unit
(** Write to a file, trailing newline included.
    @raise Sys_error on I/O failure. *)

val read : string -> (t, string) result
(** Read and decode; I/O errors are returned as [Error]. *)

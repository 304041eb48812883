(** The evaluation core of the service: a {!Xaos_core.Query_set} registry
    under supervision.

    Each published document runs with three independent guards:

    - a {e structure budget} per run ({!Xaos_core.Engine.Budget_exceeded}
      — a pathological query aborts {e individually}, with its partial
      results, and the rest of the set keeps going);
    - a {e wall-clock deadline} for the whole document (checked every few
      events; on expiry the session is finished partially — bounded
      per-document latency is the service contract);
    - SAX {e resource limits} + lenient recovery (malformed input is
      repaired where possible and every recovery is counted; a tripped
      limit ends the document partially instead of killing the process).

    Supervision feeds {!Quarantine}: a run that trips its budget or
    raises is a failure attributed to that subscription; crossing the
    threshold unregisters it from the dispatch set with a reason code.
    Document-level ends (deadline, limit, truncation) are {e not}
    attributed — they are the document's fault. Quarantined subscriptions
    are re-admitted automatically once their backoff elapses, on the
    document tick counter.

    Long-lived sessions reset the {!Xaos_xml.Symbol} interning table
    every [reset_symbols_every] documents so the symbol space tracks the
    live vocabulary instead of growing forever; compiled queries
    re-resolve at engine creation, so this is invisible to subscribers.

    Thread-safe: one internal lock serializes {!publish} with the
    subscription operations. *)

type config = {
  budget : int option;  (** live matching structures per run *)
  deadline_s : float option;  (** per-document wall clock *)
  limits : Xaos_xml.Sax.limits;
  quarantine : Quarantine.config;
  reset_symbols_every : int;  (** documents between interning resets; 0 = never *)
  earliest : bool;
      (** compile {e every} subscription in earliest-decision emission
          mode ({!Xaos_core.Engine.Earliest}), regardless of what the
          individual {!subscribe} calls asked for — the [serve
          --earliest] switch *)
  prefix_gate : bool;
      (** route gateable equivalence classes through the shared-prefix
          trie ({!Xaos_core.Prefix_gate}): their engines stay dormant —
          zero cost — until the document touches one of their forward
          prefixes, then attach mid-document via open-chain replay.
          Results are unchanged (the prefix analysis is conservative);
          on by default *)
  slow_ms : float option;
      (** slow-document threshold in milliseconds: a document whose
          total pipeline time reaches it lands in {!slow_docs} and the
          event log with its per-subscription breakdown ([Some 0.]
          flags every document — deterministic for tests); [None]
          disables the log *)
}

val default_config : config
(** budget 50k structures, deadline 2 s, {!Xaos_xml.Sax.default_limits},
    default quarantine, symbol reset every 256 documents, deferred
    emission, prefix gate on, no slow-document log. *)

type t

val create : ?config:config -> unit -> t

(** {1 Subscriptions} *)

val subscribe :
  ?earliest:bool -> t -> name:string -> query:string -> (unit, string) result
(** Compile and register. [Error] on a bad expression or duplicate
    name. [earliest] (default [false]) compiles the query in
    earliest-decision emission mode ({!Xaos_core.Engine.Earliest}): its
    results are additionally delivered one by one through {!publish}'s
    [on_item] callback the moment each is decided, mid-document. The
    mode is baked into the compiled query, so it survives quarantine
    and re-admission. *)

val unsubscribe : t -> name:string -> bool

type status =
  | Live
  | Quarantined of string  (** reason code *)

val subscriptions : t -> (string * status) list
(** Sorted by name. *)

(** {1 Publishing} *)

type doc_outcome = {
  doc_id : string;
  tick : int;  (** this document's position in the broker's stream *)
  matches : (string * int) list;  (** subscriptions with ≥ 1 result *)
  events : int;  (** SAX events evaluated *)
  faults : int;  (** lenient-mode recoveries in this document *)
  deadline_hit : bool;
  limit_hit : string option;  (** tripped {!Xaos_xml.Sax.limit_kind} name *)
  aborted : string list;  (** runs that tripped the structure budget *)
  failed : (string * string) list;  (** runs that raised, with message *)
  quarantined_now : (string * string) list;
      (** subscriptions quarantined by this document, with reason *)
  readmitted : string list;  (** subscriptions re-admitted before it *)
}

val publish :
  ?on_item:(name:string -> Xaos_core.Item.t -> unit) ->
  ?flight:Xaos_obs.Flight.t ->
  t -> doc_id:string -> string -> doc_outcome
(** Evaluate one document against every live subscription. Never raises
    on document content: malformed bytes, limit trips, budget trips and
    engine failures all land in the outcome.

    [on_item] receives each result element of every non-deferred
    (earliest / eager) subscription the moment it is decided, while the
    document is still streaming — called from the publishing thread,
    in document order per subscription, exactly once per (subscription,
    element). Deferred subscriptions never reach it; their matches are
    only summarized in the outcome. The outcome's [matches] counts are
    identical in every mode.

    While telemetry is enabled, per-stage latencies are recorded into
    the [stage/parse], [stage/dispatch] and [stage/subscription_match]
    histograms, result emission latency (in document bytes) into
    [engine/emission], and every supervision decision — quarantine,
    re-admission, document-level end — into the {!Xaos_obs.Eventlog}
    with a typed reason code.

    While {!Xaos_obs.Attrib} is enabled, every run outcome is charged
    to the owning subscription's cost account (events delivered, match
    time, structures, peaks, emissions, faults), and the broker keeps
    independent pipeline totals for the conservation check. The [tick]
    in the outcome is the document's monotone id.

    [flight] attaches an in-progress flight recording: the broker adds
    the parse/dispatch/emission stage spans plus the per-subscription
    match spans and marks the recording slow/faulted as appropriate.
    The caller finishes the recording (the server does it from the
    writer thread so the [writer] span is included).

    Seconds are measured only while telemetry is enabled, read once per
    document: otherwise the match seconds charged to {!Xaos_obs.Attrib},
    the per-subscription breakdown of the slow log and the flight
    spans' durations are all zero, and the clock is never read inside
    the event loop. {!Server.start} turns telemetry on for them. *)

(** {1 Observability} *)

val docs_seen : t -> int

val stats : t -> (string * float) list
(** Scalar counters for the run report: documents, events, faults,
    matches, deadline/limit ends, aborts, failures, quarantine and
    re-admission totals, live/quarantined subscription counts, plus the
    key quantiles of every non-empty latency histogram
    ({!Xaos_obs.Histogram.stats}). *)

val quarantined : t -> (string * string * int) list
(** Currently quarantined subscriptions: (name, reason, release tick) —
    what [xaos top] shows. *)

type slow_doc = {
  sd_doc_id : string;
  sd_tick : int;
  sd_total_ms : float;
  sd_events : int;
  sd_faults : int;
  sd_deadline : bool;
  sd_limit : string option;
  sd_top : (string * float) list;
      (** per-subscription breakdown: (name, match seconds), descending;
          the seconds are zero unless telemetry was on *)
}
(** One slow-document record. *)

val slow_docs : t -> slow_doc list
(** The slow-document log, newest first, bounded (64 records) — what
    the [slowlog] wire op serves. *)

val slow_doc_to_json : slow_doc -> Xaos_obs.Json.t

val report : ?extra_stats:(string * float) list -> t -> Xaos_obs.Report.t
(** Schema-current run report of kind ["service"]; [extra_stats] lets
    the server add transport-side counters (shed, displaced, drops). *)

(** Wire protocol of the subscription service: line-delimited JSON over a
    Unix-domain socket, one request or response object per line, encoded
    with {!Xaos_obs.Json} (no external JSON dependency).

    Requests (client → server) carry an ["op"] field:
    {v
    {"op":"subscribe","name":"q1","query":"//a//b"}
    {"op":"unsubscribe","name":"q1"}
    {"op":"publish","id":"doc-1","priority":5,"doc":"<a><b/></a>"}
    {"op":"stats"} {"op":"report"} {"op":"shutdown"}
    {"op":"stats-stream","interval_s":1.0,"count":10}
    {"op":"metrics"}
    {"op":"profile","n":10,"by":"match_s"}
    {"op":"slowlog","max":20}
    v}

    Responses and asynchronous events (server → client) carry either an
    ["ok"] field (the direct answer to a request) or an ["event"] field:
    [item] (one result element of an [earliest] subscription this
    connection owns, pushed mid-document the moment it is decided, with
    the element's document-order id, tag and level),
    [match] (a subscription this connection owns matched a document),
    [processed] (the document this connection published was evaluated,
    with per-subscription match counts and fault accounting),
    [overload] (the published document was shed or displaced by admission
    control), [quarantine]/[readmit] (lifecycle of a subscription
    this connection owns), and [stats] (one periodic snapshot of a
    running [stats-stream]). *)

type request =
  | Subscribe of { name : string; query : string; earliest : bool }
      (** [earliest] opts this subscription into earliest-decision
          emission: the server additionally pushes one ["item"] event
          per result element the moment it is decided, while the
          document is still streaming (the per-document ["match"]
          summary still follows). Optional on the wire, default
          [false]. *)
  | Unsubscribe of { name : string }
  | Publish of { doc_id : string; priority : int; doc : string }
  | Stats
  | Stats_stream of { interval_s : float; count : int option }
      (** push a ["stats"] event with the full stats snapshot every
          [interval_s] seconds on this connection, [count] times ([None]
          = until the connection closes). [interval_s] defaults to 1.0
          on the wire and must be positive. *)
  | Metrics
      (** one-shot Prometheus-style text exposition of every telemetry
          cell and latency histogram ({!Xaos_obs.Expose.render}),
          returned in the ["metrics"] field of the reply *)
  | Profile of { top_n : int; by : string }
      (** the per-subscription cost table ({!Xaos_obs.Attrib}): registry
          totals plus the [top_n] most expensive accounts ordered by
          [by] (an {!Xaos_obs.Attrib.order_of_string} spelling; defaults
          on the wire: [n] 10, [by] ["match_s"]). Answered even while
          attribution is disabled — the reply carries an ["enabled"]
          flag so the client can say so. *)
  | Slowlog of { max : int }
      (** the newest [max] (wire default 20) slow-document records from
          the broker's threshold-triggered log
          ({!Broker.slow_docs}). *)
  | Report
  | Shutdown

val request_to_json : request -> Xaos_obs.Json.t

val request_of_json : Xaos_obs.Json.t -> (request, string) result
(** An absent optional field takes its wire default; a present one of
    the wrong type ([priority], [interval_s], [count], [n], [by], [max],
    [earliest]) is an [Error] naming the field. *)

val request_of_line : string -> (request, string) result
(** Parse one line (without the trailing newline). *)

val op_name : request -> string

(** {1 Response builders}

    All return a single-object {!Xaos_obs.Json.t}; {!to_line} frames it. *)

val ok : op:string -> (string * Xaos_obs.Json.t) list -> Xaos_obs.Json.t

val error : op:string -> string -> Xaos_obs.Json.t

val overload : doc_id:string -> shed:[ `Incoming | `Displaced of string ] ->
  Xaos_obs.Json.t
(** The admission-control refusal, sent to [doc_id]'s publisher:
    [`Incoming] means [doc_id] was refused at the door; [`Displaced by]
    means [doc_id] had been queued but was evicted by the
    higher-priority document [by]. *)

val event : kind:string -> (string * Xaos_obs.Json.t) list -> Xaos_obs.Json.t

val to_line : Xaos_obs.Json.t -> string
(** Compact single-line encoding, trailing ['\n'] included. *)

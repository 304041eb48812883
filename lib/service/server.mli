(** The transport shell around {!Broker}: a Unix-domain socket server
    speaking {!Protocol}, built so that no single client can stall the
    others.

    Thread layout:

    - one {e accept} thread — never evaluates, never writes; a slow or
      hostile client cannot block admission of new connections;
    - one {e reader} thread per connection — parses requests; [publish]
      is an {!Ingress.offer} (non-blocking, verdict returned
      immediately) whose acknowledgement is queued before the evaluator
      can take the document, so it always precedes that document's
      [processed] event; subscription/stats ops take the broker lock
      briefly;
    - one {e evaluator} thread — drains the ingress queue in priority
      order and runs {!Broker.publish}; this is the only thread that
      evaluates documents, so per-document latency is the queue delay
      plus one evaluation;
    - one {e writer} thread per connection, fed by a bounded out-queue.
      When a consumer stops reading, its queue fills and further events
      for it are {e dropped and counted} (never buffered unboundedly,
      never blocking the evaluator), and the socket send timeout
      eventually declares the client dead.

    Any uncaught exception in a thread is recorded in {!crash_count}
    (and the thread exits) rather than killing the process — the soak
    test gates on this staying zero. *)

type config = {
  socket_path : string;
  high_watermark : int;  (** ingress bound; overload above this *)
  low_watermark : int;  (** overload clears below this *)
  out_queue : int;  (** per-client pending responses before drops *)
  write_timeout_s : float;  (** socket send timeout per client *)
  max_line_bytes : int;
      (** frame cap: a connection whose unterminated request line grows
          past this many bytes fails closed — a typed
          {!Xaos_obs.Eventlog.Line_too_long} event, one [parse] error
          response, then disconnect.  A request split across many tiny
          writes below the cap is reassembled normally. *)
  broker : Broker.config;
}

val default_config : string -> config
(** [default_config socket_path]: watermarks 64/16, out-queue 1024,
    write timeout 5 s, 8 MiB frame cap, {!Broker.default_config}. *)

type t

val start : config -> t
(** Bind (replacing a stale socket file), spawn the accept and evaluator
    threads, return immediately. Turns {!Xaos_obs.Telemetry} on when
    attribution, flight recording or the slow log is configured (they
    read seconds measured only while it is on); {!stop} turns it off
    again if [start] turned it on.
    @raise Unix.Unix_error when the socket cannot be bound. *)

val broker : t -> Broker.t

val stop : t -> unit
(** Close the listener, drain and stop the evaluator, disconnect
    clients, remove the socket file. Idempotent. *)

val wait : t -> unit
(** Block until the server is stopped (by {!stop} or a [shutdown]
    request). *)

val stats : t -> (string * float) list
(** Broker stats plus transport counters: [ingress/*] (queue length,
    shed, displaced, overload entries) and [server/*] (connections,
    dropped responses, crashes). *)

val report : t -> Xaos_obs.Report.t
(** {!Broker.report} with the transport counters as extra stats. *)

val crash_count : t -> int

val connections : t -> int

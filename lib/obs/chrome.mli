(** The Chrome trace-event writer shared by {!Tracer} and {!Flight}:
    the JSON Object Format of the Trace Event specification, which
    ui.perfetto.dev and chrome://tracing load. Timestamps and durations
    are given in seconds and written in microseconds. *)

val document : Json.t list -> Json.t
(** [{"displayTimeUnit": "ms", "traceEvents": events}]. *)

val complete :
  ?args:(string * Json.t) list ->
  name:string ->
  cat:string ->
  ts:float ->
  dur:float ->
  pid:int ->
  tid:int ->
  unit ->
  Json.t
(** One complete ([ph = "X"]) event; [args] is omitted when empty. *)

val write : string -> Json.t -> unit
(** Write a document to a file, trailing newline included.
    @raise Sys_error on I/O failure. *)

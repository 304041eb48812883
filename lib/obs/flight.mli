(** Sampled per-document flight recorder.

    A recording captures one document's causal span tree across the six
    service pipeline stages — ingress → parse → dispatch →
    per-subscription match → emission → writer — and exports it in the
    Chrome trace-event JSON through the {!Chrome} writer the engine
    {!Tracer} also uses, so flight files load directly in Perfetto.

    Sampling contract: the caller starts a recording for every document
    while the recorder is {!active}; {!finish} keeps it only when the
    document's tick falls on the [sample_every] grid, or when it was
    marked slow or faulted (those always keep). Kept recordings are
    written to the configured directory, capped at [max_files] per
    process so a long soak cannot fill the disk.

    Span layout: track 0 holds a root span for the document plus the
    sequential pipeline stages; track 1 holds per-subscription match
    spans. Stage spans carry measured durations laid against the
    document's wall clock — an attribution of time to stages, not an
    exact interleaving (the evaluator alternates stages at parse-chunk
    granularity). Those durations are measured only while
    {!Telemetry.enabled} holds; without it the broker's spans have
    zero duration and no per-subscription spans are added. The service
    server turns telemetry on whenever the recorder is {!active}. *)

type t
(** One in-progress recording. Mutation is mutex-guarded: the evaluator
    and the writer thread both add spans. *)

(** {1 Module configuration} *)

val configure :
  ?sample_every:int -> ?dir:string -> ?max_files:int -> unit -> unit
(** Set sampling grid (0 or negative disables), output directory
    (created on first write), and the per-process file cap (default
    64). Unspecified fields keep their current value. *)

val disable : unit -> unit
(** Stop recording: clears the sampling grid and the directory. *)

val active : unit -> bool
(** Whether callers should start recordings ([sample_every > 0]). *)

val reset : unit -> unit
(** Forget the written-file count and the last kept recording. Tests. *)

val written : unit -> int
(** Flight files written by this process. *)

val last : unit -> t option
(** The most recently kept recording (whether or not it reached disk) —
    lets in-process harnesses assert on span coverage without reading
    files back. *)

(** {1 Recording} *)

val start : doc_id:string -> t
(** Begin a recording stamped with the current {!Telemetry.now}. *)

val doc_id : t -> string

val set_tick : t -> int -> unit
(** The broker's monotone document number — drives the sampling grid
    and becomes the trace's pid. *)

val mark_slow : t -> unit
(** Document crossed the slow threshold: always keep. *)

val mark_faulted : t -> unit
(** Document faulted at least one run (or died): always keep. *)

val span :
  t ->
  ?cat:string ->
  ?track:int ->
  ?args:(string * Json.t) list ->
  name:string ->
  start:float ->
  stop:float ->
  unit ->
  unit
(** Add a complete span, absolute [start]/[stop] on the
    {!Telemetry.now} clock (negative durations clamp to zero). *)

val span_names : t -> string list
(** Names of the spans added so far, in order — assertion helper. *)

val keep : t -> bool
(** Whether {!finish} would keep this recording now. *)

(** {1 Export} *)

val to_chrome : t -> Json.t
(** The recording as a Chrome trace-event document: a root span plus
    one complete event per recorded span, timestamps shifted so the
    earliest span starts at 0. *)

val finish : t -> string option
(** Close the recording (idempotent — only the first call acts). If the
    keep rule selects it, remembers it as {!last} and, when a directory
    is configured and the file cap is not exhausted, writes
    [flight-<tick>-<docid>.json] and returns the path. *)

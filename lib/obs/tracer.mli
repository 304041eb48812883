(** Causal provenance tracer: a bounded ring buffer of typed
    matching-structure lifecycle events.

    Where {!Telemetry} aggregates (counters, histograms, span totals),
    the tracer records {e individual} events — structure created /
    propagated / optimistically propagated / undone / refuted / emitted —
    each stamped with a monotonically assigned causal id, the causal id
    of its parent cause, the x-node, and the SAX byte/line position at
    which it happened. Two consumers sit on top:

    - {!to_chrome} exports the buffer as Chrome trace-event JSON (the
      format ui.perfetto.dev loads): engine phases become duration
      events, structure lifecycles async begin/instant/end events;
    - {!provenance} walks parent-cause links backward from an emitted
      result item, reconstructing {e why} it is in the answer — the
      chain of creations and propagations connecting it to the root.

    Flag discipline is the same as {!Telemetry}: when disabled, every
    hook is one flag load and an untaken branch, no allocation. The
    instrumented code guards each call site with {!enabled} so argument
    evaluation is skipped too. Positions are threaded in by whoever
    drives the event loop ({!set_position} before each event); the
    engine itself never sees the byte stream.

    The buffer is a ring: at capacity, the oldest events are overwritten.
    Causal ids stay valid as references — {!find} simply returns [None]
    for an event that has been dropped — so parent-cause links of
    retained events never dangle into garbage.

    Not thread-safe, same as the telemetry sink. *)

(** What happened. [serial] fields refer to matching-structure serial
    numbers (unique per engine run; the root structure is serial 0 and
    never gets a [Created] event). *)
type kind =
  | Created of { parent_serial : int }
      (** a structure was allocated at a start event; [parent_serial] is
          the open witness that made the element relevant ([-1] when the
          relevance filter is off or the witness is unknown) *)
  | Propagated of { target_serial : int; optimistic : bool }
      (** the subject structure was placed into [target_serial]'s slot —
          a confirmed forward-axis push, or an optimistic backward-axis
          pull when [optimistic] *)
  | Undone of { target_serial : int }
      (** the refutation cascade removed the subject's placement from
          [target_serial] *)
  | Refuted  (** conclusively no total matching at this structure *)
  | Emitted of { item_id : int }
      (** the subject's element was reported as a result item *)
  | Phase of { phase_name : string; enter : bool }
      (** an engine/driver phase boundary (duration events in the
          Chrome export); [serial] is [-1] *)

type event = {
  id : int;  (** causal id, monotone over the whole trace *)
  parent : int;
      (** causal id of the parent cause: the [Created] event of
          [parent_serial] for creations, of the subject structure for
          everything else; [-1] when unknown *)
  kind : kind;
  serial : int;  (** subject structure; [-1] for phases *)
  xnode : int;  (** x-node of the subject; [-1] for phases *)
  item_id : int;  (** document-order id of the subject's element *)
  tag : string;  (** element tag of the subject; [""] for phases *)
  level : int;  (** element level; [-1] for phases *)
  byte : int;  (** SAX byte offset of the current event; [-1] unknown *)
  line : int;  (** SAX line; [-1] unknown *)
  ts : float;  (** seconds since {!enable}, {!Telemetry.now} clock *)
}

(** {1 Control} *)

val enable : ?capacity:int -> unit -> unit
(** Start recording into a fresh ring of [capacity] events (default
    65536). Implies {!reset}. *)

val disable : unit -> unit
(** Stop recording; the buffer is kept for draining. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Drop every recorded event and restart causal ids at 0. *)

val capacity : unit -> int

(** {1 Hook points}

    All are no-ops when disabled; hot-path callers should still guard
    with [if Tracer.enabled () then ...] so arguments are not even
    evaluated. *)

val set_position : byte:int -> line:int -> unit
(** Thread the SAX position in; subsequent events are stamped with it.
    Two stores — cheap enough for a per-event call. *)

val created :
  serial:int -> xnode:int -> item_id:int -> tag:string -> level:int ->
  parent_serial:int -> unit

val propagated : optimistic:bool -> child:int -> target:int -> unit
(** [child] was placed into [target]'s slot. Subject is [child]. *)

val undone : child:int -> target:int -> unit

val refuted : serial:int -> unit

val emitted : serial:int -> item_id:int -> unit

val phase_begin : string -> unit

val phase_end : string -> unit

(** {1 Draining} *)

val events : unit -> event list
(** Retained events, oldest first. *)

val recorded : unit -> int
(** Total events recorded since {!enable}/{!reset}, including dropped. *)

val dropped : unit -> int
(** Events overwritten by the ring. [recorded () - dropped ()] are
    retained. *)

val find : int -> event option
(** Event by causal id; [None] if never recorded or already dropped. *)

val creation : serial:int -> event option
(** The [Created] event of a structure, if still retained. *)

(** {1 Provenance} *)

val provenance : item_id:int -> event list
(** Why is element [item_id] in the result? The causal chain, emission
    first: the [Emitted] event, then alternating [Created] and
    [Propagated] events walking the surviving placement links from the
    emitting structure up toward the root structure. Propagations undone
    later are skipped (they did not carry the result). Empty when no
    emission of [item_id] is retained. *)

val undos_survived : serial:int -> int
(** Retained [Undone] events that removed an entry from one of this
    structure's slots — optimism revoked under it while it survived. *)

(** {1 Chrome trace-event export}

    The JSON Object Format of the Trace Event specification, loadable in
    ui.perfetto.dev or chrome://tracing: phases map to [B]/[E] duration
    events, the whole trace to one [X] complete event, creations to [b]
    (async begin), propagations/undos to [n] (async instant), refutations
    to [e] (async end) — all on the structure's async id track — and
    emissions to [i] (instant). Timestamps are microseconds since
    {!enable}; [args] carry the causal id, parent cause, x-node, element
    id, and byte/line position of every event. The document wrapper, the
    [X] event and the file write come from {!Chrome}, shared with
    {!Flight}. *)

val to_chrome : unit -> Json.t

val write_chrome : string -> unit
(** {!to_chrome} to a file, trailing newline included.
    @raise Sys_error on I/O failure. *)

(** Evaluate many compiled queries over one document in a single pass —
    the publish/subscribe arrangement of the filtering systems the paper
    compares against (XFilter/YFilter), with χαος's extra capability:
    subscriptions may use backward axes.

    Three sharing layers compound under {!Shared} dispatch:

    + {e Compaction} (on by default): subscriptions whose queries are
      evaluation-equivalent — same {!Query.class_key}, i.e. the same
      hash-consed x-dags under the same engine configuration — share one
      engine {e equivalence class}. The class engine evaluates once and
      fans its results out to every member; match seconds are split
      across the fan-out in the reported outcomes, so attribution still
      sums to the pipeline total.
    + The tag-keyed {e dispatch index} merged from every class engine's
      x-dag looking-for frontier: a start/end element event is delivered
      only to the runs whose current frontier can match its tag (plus
      the wildcard bucket); everything else is suppressed without
      touching the run at all. The index is maintained incrementally
      through {!Engine.subscribe_interest} notifications as each run's
      frontier evolves with the stream, so suppression is sound: a
      suppressed event could not have created a matching structure in
      that run.
    + Optionally, a {e shared-prefix gate} ({!Prefix_gate}, the
      generalized YFilter trie): classes whose every disjunct has a safe
      forward prefix ({!Query.gate_prefixes}) start {e dormant}, with no
      engine at all, and are attached mid-document through the
      open-chain replay machinery the first time the trie accepts one of
      their prefixes. A document touching none of the prefixes never
      pays for those engines.

    Outcomes are identical per subscription name to the {!Naive} loop on
    every document — the differential oracle the test suite exercises. *)

type t
(** A registry of named compiled queries. Long-lived: subscriptions can
    be {!register}ed and {!unregister}ed at runtime between documents;
    a {!session} snapshots the registry when it starts (and can itself
    take mid-stream {!add_run}/{!remove_run} changes). *)

val of_queries : (string * Query.t) list -> t
(** Build from (name, query) pairs. Names must be unique.
    @raise Invalid_argument on a duplicate name. *)

val register : t -> string -> Query.t -> unit
(** Add a subscription at runtime. Sessions already started are not
    affected (use {!add_run} to join one mid-stream).
    @raise Invalid_argument on a duplicate name. *)

val unregister : t -> string -> bool
(** Remove a subscription; [false] if the name is unknown. Sessions
    already started keep their snapshot. *)

val mem : t -> string -> bool

val compile :
  ?config:Engine.config -> (string * string) list -> (t, string) result
(** Compile (name, expression) pairs. All failures are accumulated: the
    error message lists every offending expression (prefixed by its
    name, one per line), so a large subscription set is debugged in one
    round-trip. *)

val names : t -> string list

val size : t -> int

val class_count : t -> int
(** Distinct engine equivalence classes ({!Query.class_key}) among the
    registered subscriptions — what a compacted {!Shared} session will
    run engines for. [size t / class_count t] is the compaction ratio. *)

(** {1 Matching} *)

type outcome = {
  query_name : string;
  items : Item.t list;  (** document order, duplicate-free *)
  aborted : bool;
      (** the outcome is partial: this run tripped the structure budget
          mid-stream, raised (see [failed]), or the whole session was
          finished via {!finish_partial}; [items] are the results
          already certain at the abort point *)
  failed : string option;
      (** fault isolation: the run's engine raised something other than
          {!Engine.Budget_exceeded} and was aborted in place (the
          message is [Printexc.to_string] of the exception); the other
          runs were untouched *)
  spent_s : float;
      (** this subscription's share of the wall-clock seconds its class
          engine spent matching (feed plus end-of-document resolution):
          the class total split evenly across the live fan-out, so
          summing [spent_s] over all outcomes still equals the physical
          seconds the pipeline spent — the conservation invariant cost
          attribution relies on. [fanout = 1] (no sharing) makes this
          the plain per-subscription match time. Always [0.] when
          telemetry was disabled at {!start}: the session reads the
          flag once and never reads the clock when it is off. *)
  delivered : int;
      (** events this outcome's class engine was fed: dispatch
          deliveries plus ancestor replays for mid-stream registration.
          Counted unconditionally (one int increment), so it is valid
          with telemetry off. Not split across the fan-out: every
          member's results came from all of these deliveries. *)
  fanout : int;
      (** subscriptions sharing this outcome's engine when it was
          resolved (>= 1) — the denominator of the [spent_s] split *)
  stats : Stats.t;
      (** the class engine's counters ({!Query.run_stats}) at outcome
          time: structures created, live peak, retained bytes — what
          cost attribution charges to the owning subscription. Shared
          members report the same engine's counters. *)
}

type dispatch =
  | Shared  (** route events through the shared dispatch index *)
  | Naive  (** deliver every event to every run (the reference loop) *)

(** {2 Sessions}

    A session is one document streamed through the whole set. Feed it
    the document's events, then {!finish}. A run that raises
    {!Engine.Budget_exceeded} is aborted {e individually}: its partial
    outcome is captured and the remaining runs keep going. *)

type session

val start :
  ?budget:int -> ?dispatch:dispatch -> ?gate:bool ->
  ?on_item:(name:string -> Item.t -> unit) -> t -> session
(** Fresh runs for one document. [budget] caps live matching structures
    per disjunct engine of every run. [dispatch] defaults to
    {!Shared}, which folds subscriptions with equal {!Query.class_key}
    into one shared engine with fan-out emission; {!Naive} runs one
    engine per subscription and stays the uncompacted reference.
    [gate] (default [false]; {!Shared} only) additionally keeps
    gateable classes ({!Query.gate_prefixes}) dormant behind the
    shared-prefix trie, attaching them mid-document on first prefix
    acceptance — results are unchanged, but per-event
    dispatch/suppression counts differ from the ungated session, which
    is why it is opt-in here (the service broker turns it on).
    [on_item] enables mid-document match delivery: it is wired as the
    [on_match] callback of every class whose query was compiled with a
    non-deferred {!Engine.emission} mode (deferred runs never call it —
    their items only appear in the {!finish} outcomes), fires at most
    once per (member, item), and is muted for members detached via
    {!remove_run}. Items delivered mid-stream still appear in the
    member's outcome: the callback is a preview, the outcome stays the
    complete record. *)

val feed : session -> Xaos_xml.Event.t -> unit
(** Route one event. Under {!Shared} dispatch, element events reach only
    the interested runs; text is delivered to runs with an open
    text-test buffer; comments and PIs are dropped. *)

val add_run : session -> string -> Query.t -> unit
(** Join a subscription mid-document. The session replays the currently
    open ancestor chain (with the original document-order element ids)
    into the fresh run and maintains the dispatch index incrementally,
    so the run matches everything decidable from this point on: results
    are those of a full run restricted to elements whose start event had
    not yet been seen, plus the open ancestors themselves. Always a
    fresh singleton class, never folded into an existing engine — an
    engine started earlier has consumed events the late subscriber must
    not see. The session's budget applies.
    @raise Invalid_argument on a duplicate live name. *)

val remove_run : session -> string -> bool
(** Detach a subscription mid-document: its membership is muted and
    excluded from {!finish} outcomes; [false] if the name is not live in
    this session. The class engine is refcounted — it is only aborted
    (draining its dispatch-index buckets) when the last live member
    detaches, so sharing subscribers are unaffected. *)

val finish : session -> outcome list
(** Outcomes in query order, including empty ones. *)

val finish_partial : session -> outcome list
(** The document died mid-stream (truncation, parse error, limit): every
    live run is finished via {!Query.finish_partial} and all outcomes
    are flagged [aborted]. *)

val set_stream_byte : session -> int -> unit
(** Tell the session the input stream's current byte offset (e.g.
    {!Xaos_xml.Sax.bytes_read} after pulling the event about to be
    fed). Forwarded to a run's engines at each delivery so results can
    be stamped for emission-latency measurement (bytes between a result
    becoming decidable and its emission). Purely observational; never
    calling it leaves every latency at 0. *)

val dispatch_stats : session -> int * int
(** [(dispatched, suppressed)] (start-event, run) delivery counts so far
    — the A/B observability for the dispatch index. Runs are engine
    classes, so compaction lowers both. Suppressed is always 0 under
    {!Naive}. *)

val session_stats : session -> int * int * int
(** [(classes, members, dormant)]: engine classes in this session
    (active or dormant), live (non-removed) subscriptions fanning into
    them, and classes still gate-dormant. [members / classes] is the
    session's compaction ratio. *)

(** {2 One-shot helpers} *)

val run_events :
  ?budget:int -> ?dispatch:dispatch -> ?gate:bool ->
  t -> Xaos_xml.Event.t list -> outcome list
(** One pass; outcomes in query order, including empty ones. *)

val run_sax :
  ?budget:int -> ?dispatch:dispatch -> ?gate:bool ->
  t -> Xaos_xml.Sax.t -> outcome list

val run_string :
  ?budget:int -> ?dispatch:dispatch -> ?gate:bool ->
  t -> string -> outcome list

val run_doc : ?budget:int -> t -> Xaos_xml.Dom.doc -> outcome list
(** DOM replay feeds each run directly (no event stream to dispatch), so
    it always uses the per-run loop; budget trips still abort runs
    individually. *)

val matching_names : outcome list -> string list
(** Names of the queries with at least one result — the routing decision
    of a filtering broker. *)

(** Per-subscription cost accounts.

    Every stage of the service pipeline that does work on behalf of a
    subscription charges that work — events routed, match time,
    structures created, peak live/retained footprint, emissions, faults —
    to the subscription's account. The registry is process-global and
    keyed by subscription id, so accounts persist across quarantine and
    unsubscribe/resubscribe: attribution follows the tenant, not the
    connection.

    Discipline mirrors {!Telemetry}: attribution is off by default, and
    while off {!charge} is a single flag test. The broker only performs
    the per-outcome account lookups when {!enabled} is true, so the
    disabled service pipeline pays nothing.

    Attribution does not read the clock itself: the match seconds it is
    charged are measured only while {!Telemetry.enabled} holds, and are
    zero otherwise. The service server turns telemetry on whenever
    attribution is enabled.

    Charging is done from the broker's single evaluator thread without a
    lock (mutable word-sized fields cannot tear); the registry mutex
    guards only find-or-create and listing. Readers may observe a
    snapshot one document stale — fine for profiles. *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Drop every account. Tests and fresh bench runs. *)

type account
(** A mutable cost account. Obtain via {!account}; hold onto the handle
    to charge without repeated registry lookups. *)

val account : string -> account
(** Find or create the account for a subscription id. Registry-locked;
    call once per subscription (or per outcome — it is cheap, not
    free). *)

val key : account -> string

val charge :
  account ->
  events:int ->
  match_s:float ->
  structures:int ->
  live_peak:int ->
  retained_peak_bytes:int ->
  emissions:int ->
  fault:bool ->
  unit
(** Charge one per-document run outcome to the account: increments docs
    by one, adds [events]/[match_s]/[structures]/[emissions], maxes the
    peaks, and counts a fault if [fault]. No-op while disabled. *)

(** {1 Read side} *)

type snapshot = {
  sn_key : string;
  sn_docs : int;
  sn_events : int;
  sn_match_s : float;
  sn_structures : int;
  sn_live_peak : int;
  sn_retained_peak_bytes : int;
  sn_emissions : int;
  sn_faults : int;
}
(** An immutable copy of one account's counters. *)

val accounts : unit -> snapshot list
(** Every account, in registration order. *)

type order_by =
  | By_match_s
  | By_events
  | By_emissions
  | By_structures
  | By_faults

val order_name : order_by -> string
(** Stable wire spelling: ["match_s"], ["events"], … *)

val order_of_string : string -> order_by option
(** Inverse of {!order_name}, with a few aliases (["match"], ["time"],
    ["items"]). *)

val top : ?by:order_by -> int -> snapshot list
(** The [n] most expensive accounts, descending by the chosen measure
    (default {!By_match_s}); stable for ties. *)

type totals = {
  t_subscriptions : int;
  t_docs : int;
  t_events : int;
  t_match_s : float;
  t_structures : int;
  t_emissions : int;
  t_faults : int;
}

val totals : unit -> totals
(** Registry-wide sums — what the conservation test compares against the
    broker's independently accumulated pipeline totals. *)

val snapshot_to_json : snapshot -> Json.t
val totals_to_json : totals -> Json.t

val report_section : ?top_n:int -> unit -> Report.attribution
(** The schema-v4 [attribution] report section: totals plus the top
    [top_n] (default 20) accounts by match time. *)

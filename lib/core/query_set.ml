type t = {
  mutable queries : (string * Query.t) list;
      (** registration order; names unique among live entries *)
  mutable version : int;
      (** bumped by {!register}/{!unregister}; invalidates the gate cache *)
  mutable gate_cache : gate_cache option;
}

and gate_cache = {
  gc_version : int;
  gc_generation : int;  (** symbol-table generation the trie was built in *)
  gc_trie : string Prefix_gate.t;  (** payloads are equivalence-class keys *)
  gc_gated : (string, unit) Hashtbl.t;  (** class keys present in the trie *)
}

let gauge_subscriptions =
  Xaos_obs.Telemetry.gauge ~help:"subscriptions in the current set"
    "xaos_filter_subscriptions"

let gauge_classes =
  Xaos_obs.Telemetry.gauge
    ~help:"engine equivalence classes in the last started session"
    "xaos_queryset_classes"

let gauge_compaction =
  Xaos_obs.Telemetry.gauge
    ~help:"subscriptions per engine class in the last started session \
           (fan-out ratio; 1.0 = no sharing)"
    "xaos_queryset_compaction_ratio"

let counter_documents =
  Xaos_obs.Telemetry.counter ~help:"documents run through a query set"
    "xaos_filter_documents_total"

let counter_dispatched =
  Xaos_obs.Telemetry.counter
    ~help:"(element event, run) deliveries performed by query sets"
    "xaos_filter_events_dispatched_total"

let counter_suppressed =
  Xaos_obs.Telemetry.counter
    ~help:"(element event, run) deliveries suppressed by the shared \
           dispatch index"
    "xaos_filter_events_suppressed_total"

let counter_run_faults =
  Xaos_obs.Telemetry.counter
    ~help:"runs aborted by an engine exception other than Budget_exceeded"
    "xaos_filter_run_faults_total"

let counter_gate_activations =
  Xaos_obs.Telemetry.counter
    ~help:"dormant engine classes activated by the shared-prefix gate"
    "xaos_filter_gate_activations_total"

let of_queries queries =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (name, _) ->
      if Hashtbl.mem seen name then
        invalid_arg ("Query_set.of_queries: duplicate name " ^ name);
      Hashtbl.add seen name ())
    queries;
  Xaos_obs.Telemetry.set_gauge gauge_subscriptions (List.length queries);
  { queries; version = 0; gate_cache = None }

let compile ?config pairs =
  (* accumulate every failing query: a large subscription set should need
     one round-trip to fix, not one per broken expression *)
  let compiled =
    List.map (fun (name, expression) -> (name, Query.compile ?config expression))
      pairs
  in
  let errors =
    List.filter_map
      (function
        | name, Error msg -> Some (Printf.sprintf "%s: %s" name msg)
        | _, Ok _ -> None)
      compiled
  in
  match errors with
  | [] ->
    Ok
      (of_queries
         (List.map
            (fun (name, result) -> (name, Result.get_ok result))
            compiled))
  | [ e ] -> Error e
  | es ->
    Error
      (Printf.sprintf "%d queries failed to compile:\n%s" (List.length es)
         (String.concat "\n" es))

let names t = List.map fst t.queries

let size t = List.length t.queries

let mem t name = List.mem_assoc name t.queries

let class_count t =
  let keys = Hashtbl.create 16 in
  List.iter
    (fun (_, q) -> Hashtbl.replace keys (Query.class_key q) ())
    t.queries;
  Hashtbl.length keys

let register t name q =
  if List.mem_assoc name t.queries then
    invalid_arg ("Query_set.register: duplicate name " ^ name);
  t.queries <- t.queries @ [ (name, q) ];
  t.version <- t.version + 1;
  Xaos_obs.Telemetry.set_gauge gauge_subscriptions (List.length t.queries)

let unregister t name =
  if List.mem_assoc name t.queries then begin
    t.queries <- List.filter (fun (n, _) -> n <> name) t.queries;
    t.version <- t.version + 1;
    Xaos_obs.Telemetry.set_gauge gauge_subscriptions (List.length t.queries);
    true
  end
  else false

(* The shared-prefix gate trie is a pure function of (registry contents,
   symbol generation); rebuilt lazily when either moves. Only classes
   every one of whose disjuncts has a safe prefix (see
   {!Query.gate_prefixes}) enter the trie — the rest attach eagerly at
   session start as before. *)
let gate_for t =
  let generation = Xaos_xml.Symbol.generation () in
  match t.gate_cache with
  | Some gc when gc.gc_version = t.version && gc.gc_generation = generation ->
    gc
  | Some _ | None ->
    let trie = Prefix_gate.create () in
    let gated = Hashtbl.create 16 in
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (_, q) ->
        let key = Query.class_key q in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          match Query.gate_prefixes q with
          | None -> ()
          | Some prefixes ->
            List.iter (fun p -> Prefix_gate.add trie p key) prefixes;
            Hashtbl.add gated key ()
        end)
      t.queries;
    let gc =
      { gc_version = t.version; gc_generation = generation; gc_trie = trie;
        gc_gated = gated }
    in
    t.gate_cache <- Some gc;
    gc

type outcome = {
  query_name : string;
  items : Item.t list;
  aborted : bool;
  failed : string option;
  spent_s : float;
      (* this subscription's share of its class engine's match seconds
         (class wall-clock split evenly across the live fan-out);
         0. in an untimed session — the clock is never read then *)
  delivered : int;
      (* events the class engine was fed (dispatch deliveries + replays) *)
  fanout : int;
      (* subscriptions sharing this outcome's engine (>= 1); the
         denominator of the [spent_s] split *)
  stats : Stats.t;
      (* the engine's counters: structures created, live peak, retained
         bytes — the cost-attribution source *)
}

type dispatch =
  | Shared
  | Naive

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

(* One subscription's membership in an engine class. *)
type member = {
  m_name : string;
  mutable m_removed : bool;
      (** unregistered mid-session: muted at emission and excluded from
          the reported outcomes; the class engine keeps running while
          other members are live *)
}

(* One engine equivalence class: a single {!Query.run} evaluated once
   per document, fanning results out to every member. Naive sessions
   run one singleton class per subscription. *)
type run_state = {
  rs_id : int;
  rs_query : Query.t;
  mutable rs_members : member list;  (** registration order *)
  mutable rs_live_members : int;  (** refcount: members not yet removed *)
  mutable rs_run : Query.run option;
      (** [None] while gate-dormant: the engine is not created until the
          shared-prefix gate accepts one of the class's prefixes *)
  mutable rs_aborted : bool;
  mutable rs_error : string option;
      (** a non-budget engine exception; the run was aborted in place *)
  mutable rs_stamp : int;
      (** last event stamp this run was collected for; dedupes a run
          reached through both its tag bucket and the wildcard bucket *)
  mutable rs_spent : float;
      (** wall-clock seconds spent in this class's engine (feed +
          finish); accumulated only in a timed session *)
  mutable rs_delivered : int;
      (** events fed to this engine — one int increment per delivery, so
          it is counted even while telemetry is off *)
  mutable rs_result : Result_set.t option;
      (** memoized finish: the class is resolved once, at its first
          member's outcome *)
}

type session = {
  mode : dispatch;
  budget : int option;  (** applied to runs added mid-session too *)
  mutable runs_rev : run_state list;  (** reverse creation order *)
  mutable members_rev : (member * run_state) list;
      (** reverse registration order — the outcome order *)
  classes : (string, run_state) Hashtbl.t;
      (** class key -> session-start class (mid-document {!add_run}s get
          fresh singleton classes: joining an engine that has already
          consumed events would leak results from before the join) *)
  mutable next_run_id : int;
  mutable buckets : (int, run_state) Hashtbl.t option array;
      (** indexed by interned symbol id: runs whose current looking-for
          frontier contains an x-node with that name test (keyed by
          [rs_id]); grown on demand as interest callbacks mention new
          symbols. The per-event lookup is one array load — dispatch
          never hashes the element name. *)
  wildcard : (int, run_state) Hashtbl.t;
      (** runs whose frontier contains a wildcard x-node: interested in
          every element tag *)
  text_interested : (int, run_state) Hashtbl.t;
      (** runs with an open text-test buffer; recomputed after each
          delivered element event, the only points where it can change *)
  mutable delivery_stack : run_state list list;
      (** per open element (innermost first): the runs its start event
          was delivered to — its end event goes to exactly those *)
  mutable open_events : (Xaos_xml.Event.t * int) list;
      (** the open start events with their document-order ids (innermost
          first) — replayed into runs registered mid-stream so a late
          subscription sees its ancestor context *)
  mutable stamp : int;
  mutable next_id : int;
      (** document-order element counter, synced into delivered runs so
          suppressed events do not shift the ids of reported items *)
  mutable live : int;  (** active engines: not aborted, not dormant *)
  mutable dormant : int;  (** gate-dormant classes (no engine yet) *)
  mutable gate_run : string Prefix_gate.run option;
      (** the shared-prefix walk; dropped once nothing is dormant *)
  mutable dispatched : int;
  mutable suppressed : int;
  timed : bool;
      (** {!Xaos_obs.Telemetry.enabled} at session start: per-class match
          seconds are measured only then *)
  mutable current_byte : int;
      (** stream byte offset pushed in by the driver via
          {!set_stream_byte}; [-1] = no driver pushes it. Forwarded to a
          run's engines just before each delivery so emission latency
          can be stamped in bytes. *)
  on_item : (name:string -> Item.t -> unit) option;
      (** mid-document match delivery: wired as [on_match] into runs
          whose query was compiled with a non-deferred emission mode, so
          a driver (the service broker) can push results while the
          document is still streaming. Fans out to every live member;
          removed members are muted. *)
}

let bucket_add s sym rs =
  if sym >= Array.length s.buckets then begin
    let cap = max (sym + 1) (2 * Array.length s.buckets) in
    let grown = Array.make cap None in
    Array.blit s.buckets 0 grown 0 (Array.length s.buckets);
    s.buckets <- grown
  end;
  let bucket =
    match s.buckets.(sym) with
    | Some b -> b
    | None ->
      let b = Hashtbl.create 8 in
      s.buckets.(sym) <- Some b;
      b
  in
  Hashtbl.replace bucket rs.rs_id rs

let bucket_remove s sym rs =
  if sym < Array.length s.buckets then
    match s.buckets.(sym) with
    | None -> ()
    | Some b -> Hashtbl.remove b rs.rs_id

(* Abort one class in place, leaving the session consistent. Used for
   budget trips, engine faults and removal of the last member; the
   partial result is extracted (and memoized by the engine) immediately,
   and the abort unwinds the run's open matches, which drains its
   dispatch buckets through the interest callbacks. An engine broken by
   an arbitrary exception may fail to unwind — its buckets then keep
   stale entries, which dispatch skips via [rs_aborted]. A dormant class
   has no engine: aborting it just takes it out of the gate's reach. *)
let abort_run s rs =
  if not rs.rs_aborted then begin
    rs.rs_aborted <- true;
    match rs.rs_run with
    | None -> s.dormant <- s.dormant - 1
    | Some run ->
      s.live <- s.live - 1;
      Hashtbl.remove s.text_interested rs.rs_id;
      (try ignore (Query.finish_partial run) with _ -> ())
  end

(* Feed one event to one class engine. A budget trip aborts that class
   only; any other engine exception likewise poisons just this class
   (fault isolation: one broken subscription must never take the session
   down) but is remembered as [rs_error] so callers can distinguish
   degraded service from a resource trip. *)
let feed_run s rs ev =
  match rs.rs_run with
  | None -> ()
  | Some run ->
    if not rs.rs_aborted then begin
      rs.rs_delivered <- rs.rs_delivered + 1;
      if s.current_byte >= 0 then Query.set_stream_byte run s.current_byte;
      (* per-class match time; the clock is only read (and the float
         only boxed) while the session is timed *)
      let t0 = if s.timed then Xaos_obs.Telemetry.now () else 0. in
      (try Query.feed run ev with
      | Engine.Budget_exceeded _ -> abort_run s rs
      | exn ->
        rs.rs_error <- Some (Printexc.to_string exn);
        Xaos_obs.Telemetry.incr counter_run_faults;
        abort_run s rs);
      if s.timed then
        rs.rs_spent <- rs.rs_spent +. (Xaos_obs.Telemetry.now () -. t0)
    end

(* After a delivered element event, the run's text interest may have
   changed (a text-test buffer opened or closed). *)
let refresh_text_interest s rs =
  match rs.rs_run with
  | None -> ()
  | Some run ->
    if not rs.rs_aborted then begin
      if Query.wants_text run then Hashtbl.replace s.text_interested rs.rs_id rs
      else Hashtbl.remove s.text_interested rs.rs_id
    end

(* Create a class shell (no engine yet) and its first member. *)
let new_class s q name =
  let rs =
    {
      rs_id = s.next_run_id;
      rs_query = q;
      rs_members = [];
      rs_live_members = 0;
      rs_run = None;
      rs_aborted = false;
      rs_error = None;
      rs_stamp = -1;
      rs_spent = 0.;
      rs_delivered = 0;
      rs_result = None;
    }
  in
  s.next_run_id <- s.next_run_id + 1;
  s.runs_rev <- rs :: s.runs_rev;
  let m = { m_name = name; m_removed = false } in
  rs.rs_members <- [ m ];
  rs.rs_live_members <- 1;
  s.members_rev <- (m, rs) :: s.members_rev;
  rs

(* Fan a later duplicate subscription into an existing class. Only valid
   before any event reached the engine (i.e. at session start): the
   class's results are the member's results exactly when they evaluate
   the same stream suffix. *)
let join_class s rs name =
  let m = { m_name = name; m_removed = false } in
  rs.rs_members <- rs.rs_members @ [ m ];
  rs.rs_live_members <- rs.rs_live_members + 1;
  s.members_rev <- (m, rs) :: s.members_rev

(* Start the class engine and wire it into the session: subscribe it to
   the dispatch index (Shared), replay the open ancestor chain with the
   original document-order ids, and route the pending end events to it
   by joining every delivery-stack frame. The index is maintained
   incrementally — the interest callbacks fired during subscription and
   replay populate exactly the buckets the new run's frontier needs.
   Called at session start for ungated classes, from the gate on first
   prefix acceptance, and from {!add_run}. *)
let activate s rs =
  match rs.rs_run with
  | Some _ -> ()
  | None ->
    if not rs.rs_aborted then begin
      let q = rs.rs_query in
      let on_match =
        match s.on_item with
        | Some f when Query.emission q <> Engine.Deferred ->
          Some
            (fun item ->
              List.iter
                (fun m -> if not m.m_removed then f ~name:m.m_name item)
                rs.rs_members)
        | Some _ | None -> None
      in
      let run = Query.start ?on_match ?budget:s.budget q in
      rs.rs_run <- Some run;
      s.live <- s.live + 1;
      (match s.mode with
      | Naive -> ()
      | Shared ->
        Query.subscribe_interest run
          {
            Engine.on_sym =
              (fun sym on ->
                if on then bucket_add s sym rs else bucket_remove s sym rs);
            on_wildcard =
              (fun on ->
                if on then Hashtbl.replace s.wildcard rs.rs_id rs
                else Hashtbl.remove s.wildcard rs.rs_id);
          });
      (* replay outer-to-inner; the open chain always has consecutive
         levels, so it is a valid stream prefix for sparse and strict
         engines alike *)
      List.iter
        (fun (ev, id) ->
          Query.sync_next_id run id;
          feed_run s rs ev)
        (List.rev s.open_events);
      (* future starts must carry the session's counter, not the replay's *)
      if not rs.rs_aborted then Query.sync_next_id run s.next_id;
      match s.mode with
      | Shared ->
        s.delivery_stack <-
          List.map (fun frame -> rs :: frame) s.delivery_stack;
        refresh_text_interest s rs
      | Naive -> ()
    end

let start ?budget ?(dispatch = Shared) ?(gate = false) ?on_item t =
  Xaos_obs.Telemetry.incr counter_documents;
  (* compaction (and the gate riding on it) only applies to shared
     dispatch: the naive loop is the uncompacted reference oracle *)
  let compact = dispatch = Shared in
  let gate = gate && compact in
  let gc = if gate then Some (gate_for t) else None in
  let s =
    {
      mode = dispatch;
      budget;
      runs_rev = [];
      members_rev = [];
      classes = Hashtbl.create 16;
      next_run_id = 0;
      buckets = Array.make (max 16 (Xaos_xml.Symbol.count ())) None;
      wildcard = Hashtbl.create 16;
      text_interested = Hashtbl.create 16;
      delivery_stack = [];
      open_events = [];
      stamp = 0;
      next_id = 1;
      live = 0;
      dormant = 0;
      gate_run = None;
      dispatched = 0;
      suppressed = 0;
      timed = Xaos_obs.Telemetry.enabled ();
      current_byte = -1;
      on_item;
    }
  in
  List.iter
    (fun (name, q) ->
      if compact then begin
        let key = Query.class_key q in
        match Hashtbl.find_opt s.classes key with
        | Some rs -> join_class s rs name
        | None ->
          let rs = new_class s q name in
          Hashtbl.add s.classes key rs;
          let gated =
            match gc with
            | Some gc -> Hashtbl.mem gc.gc_gated key
            | None -> false
          in
          if gated then s.dormant <- s.dormant + 1 else activate s rs
      end
      else begin
        let rs = new_class s q name in
        activate s rs
      end)
    t.queries;
  (match gc with
  | Some gc when s.dormant > 0 ->
    s.gate_run <- Some (Prefix_gate.start gc.gc_trie)
  | Some _ | None -> ());
  let classes = List.length s.runs_rev in
  let members = List.length s.members_rev in
  Xaos_obs.Telemetry.set_gauge gauge_classes classes;
  Xaos_obs.Telemetry.set_gauge_float gauge_compaction
    (if classes = 0 then 1. else float_of_int members /. float_of_int classes);
  s

let add_run s name q =
  if
    List.exists
      (fun (m, _) -> (not m.m_removed) && m.m_name = name)
      s.members_rev
  then invalid_arg ("Query_set.add_run: duplicate name " ^ name);
  (* always a fresh singleton class: a mid-document join must see only
     the stream from here on, which an engine started earlier has
     already partially consumed *)
  activate s (new_class s q name)

let remove_run s name =
  match
    List.find_opt
      (fun (m, _) -> (not m.m_removed) && m.m_name = name)
      s.members_rev
  with
  | None -> false
  | Some (m, rs) ->
    m.m_removed <- true;
    rs.rs_live_members <- rs.rs_live_members - 1;
    (* refcount: the class engine keeps running while any other member
       is live; only the last removal tears it down *)
    if rs.rs_live_members = 0 then begin
      abort_run s rs;
      if s.dormant = 0 then s.gate_run <- None
    end;
    true

let collect_bucket acc stamp bucket =
  Hashtbl.fold
    (fun _ rs acc ->
      if rs.rs_stamp = stamp || rs.rs_aborted then acc
      else begin
        rs.rs_stamp <- stamp;
        rs :: acc
      end)
    bucket acc

let feed_shared s ev =
  match ev with
  | Xaos_xml.Event.Start_element { sym; _ } ->
    (* the gate walks first: a newly-accepted class is activated (with
       ancestor replay, which excludes this event) before dispatch
       collects the interested runs, so its engine receives this very
       element through its freshly-populated buckets *)
    (match s.gate_run with
    | None -> ()
    | Some g -> (
      match Prefix_gate.start_element g sym with
      | [] -> ()
      | keys ->
        List.iter
          (fun key ->
            match Hashtbl.find_opt s.classes key with
            | Some rs when rs.rs_run = None && not rs.rs_aborted ->
              s.dormant <- s.dormant - 1;
              Xaos_obs.Telemetry.incr counter_gate_activations;
              activate s rs
            | Some _ | None -> ())
          keys;
        if s.dormant = 0 then s.gate_run <- None));
    s.stamp <- s.stamp + 1;
    (* snapshot the interested runs before delivering: feeding a run can
       mutate the buckets (interest callbacks, budget aborts) *)
    let interested =
      let acc =
        if sym < Array.length s.buckets then
          match Array.unsafe_get s.buckets sym with
          | Some bucket -> collect_bucket [] s.stamp bucket
          | None -> []
        else []
      in
      collect_bucket acc s.stamp s.wildcard
    in
    let id = s.next_id in
    s.next_id <- id + 1;
    s.open_events <- (ev, id) :: s.open_events;
    let delivered = List.length interested in
    s.dispatched <- s.dispatched + delivered;
    s.suppressed <- s.suppressed + (s.live - delivered);
    Xaos_obs.Telemetry.add counter_dispatched delivered;
    Xaos_obs.Telemetry.add counter_suppressed (s.live - delivered);
    List.iter
      (fun rs ->
        (match rs.rs_run with
        | Some run -> Query.sync_next_id run id
        | None -> ());
        feed_run s rs ev;
        refresh_text_interest s rs)
      interested;
    s.delivery_stack <- interested :: s.delivery_stack
  | Xaos_xml.Event.End_element _ -> (
    (match s.gate_run with
    | None -> ()
    | Some g -> Prefix_gate.end_element g);
    match s.delivery_stack with
    | [] -> invalid_arg "Query_set.feed: end event without open element"
    | interested :: rest ->
      s.delivery_stack <- rest;
      (match s.open_events with
      | [] -> ()
      | _ :: tl -> s.open_events <- tl);
      s.dispatched <- s.dispatched + List.length interested;
      Xaos_obs.Telemetry.add counter_dispatched (List.length interested);
      List.iter
        (fun rs ->
          feed_run s rs ev;
          refresh_text_interest s rs)
        interested)
  | Xaos_xml.Event.Text _ ->
    (* string values include descendant text, so routing follows the open
       text-test buffers, not the element that owns the event *)
    if Hashtbl.length s.text_interested > 0 then begin
      let interested =
        Hashtbl.fold (fun _ rs acc -> rs :: acc) s.text_interested []
      in
      List.iter (fun rs -> feed_run s rs ev) interested
    end
  | Xaos_xml.Event.Comment _ | Xaos_xml.Event.Processing_instruction _ -> ()

let feed_naive s ev =
  (match ev with
  | Xaos_xml.Event.Start_element _ ->
    let id = s.next_id in
    s.next_id <- id + 1;
    s.open_events <- (ev, id) :: s.open_events;
    s.dispatched <- s.dispatched + s.live;
    Xaos_obs.Telemetry.add counter_dispatched s.live
  | Xaos_xml.Event.End_element _ -> (
    match s.open_events with
    | [] -> ()
    | _ :: tl -> s.open_events <- tl)
  | _ -> ());
  List.iter (fun rs -> feed_run s rs ev) s.runs_rev

let feed s ev =
  match s.mode with Shared -> feed_shared s ev | Naive -> feed_naive s ev

(* End-of-document resolution counts toward the class's match time too:
   deferred emission does its output traversal in [Query.finish]. *)
let timed_finish s rs f =
  if s.timed then begin
    let t0 = Xaos_obs.Telemetry.now () in
    let result = f () in
    rs.rs_spent <- rs.rs_spent +. (Xaos_obs.Telemetry.now () -. t0);
    result
  end
  else f ()

(* Resolve a class once (memoized): the first member's outcome pays the
   finish, later members reuse the result. A dormant class never built
   an engine — its prefix never appeared, so its result set is empty. *)
let finish_class s ~partial rs =
  match rs.rs_result with
  | Some r -> r
  | None ->
    let r =
      timed_finish s rs @@ fun () ->
      match rs.rs_run with
      | None -> Result_set.empty
      | Some run ->
        if s.current_byte >= 0 then Query.set_stream_byte run s.current_byte;
        if partial || rs.rs_aborted then
          try Query.finish_partial run with _ -> Result_set.empty
        else
          (* end-of-document work runs the engine too: an exception here
             gets the same per-run isolation as [feed] *)
          match Query.finish run with
          | result -> result
          | exception Engine.Budget_exceeded _ ->
            rs.rs_aborted <- true;
            (try Query.finish_partial run with _ -> Result_set.empty)
          | exception exn ->
            rs.rs_error <- Some (Printexc.to_string exn);
            Xaos_obs.Telemetry.incr counter_run_faults;
            rs.rs_aborted <- true;
            (try Query.finish_partial run with _ -> Result_set.empty)
    in
    rs.rs_result <- Some r;
    r

let outcome_of ~aborted m rs result =
  (* physical seconds are conserved: the class's wall-clock is split
     evenly across the members still reporting, so attribution sums
     back to the pipeline total (PR 9 invariant, extended to fan-out) *)
  let sharers = max 1 rs.rs_live_members in
  {
    query_name = m.m_name;
    items = result.Result_set.items;
    aborted;
    failed = rs.rs_error;
    spent_s = rs.rs_spent /. float_of_int sharers;
    delivered = rs.rs_delivered;
    fanout = sharers;
    stats =
      (match rs.rs_run with
      | None -> Stats.create ()
      | Some run -> (try Query.run_stats run with _ -> Stats.create ()));
  }

let finish_with ~partial s =
  List.rev s.members_rev
  |> List.filter_map (fun (m, rs) ->
         if m.m_removed then None
         else
           let result = finish_class s ~partial rs in
           Some (outcome_of ~aborted:(partial || rs.rs_aborted) m rs result))

let finish s = finish_with ~partial:false s

let finish_partial s = finish_with ~partial:true s

let dispatch_stats s = (s.dispatched, s.suppressed)

let session_stats s =
  let members =
    List.fold_left
      (fun acc (m, _) -> if m.m_removed then acc else acc + 1)
      0 s.members_rev
  in
  (List.length s.runs_rev, members, s.dormant)

let set_stream_byte s b = s.current_byte <- b

(* ------------------------------------------------------------------ *)
(* One-shot helpers                                                    *)
(* ------------------------------------------------------------------ *)

let run_events ?budget ?dispatch ?gate t events =
  let s = start ?budget ?dispatch ?gate t in
  List.iter (feed s) events;
  finish s

let run_sax ?budget ?dispatch ?gate t parser =
  let s = start ?budget ?dispatch ?gate t in
  Xaos_xml.Sax.iter (feed s) parser;
  finish s

let run_string ?budget ?dispatch ?gate t input =
  run_sax ?budget ?dispatch ?gate t (Xaos_xml.Sax.of_string input)

let run_doc ?budget t doc =
  (* DOM replay bypasses the event stream, so dispatch stays per-run;
     budget trips are still isolated per run *)
  let s = start ?budget ~dispatch:Naive t in
  List.iter
    (fun rs ->
      match rs.rs_run with
      | None -> ()
      | Some run -> (
        try Query.feed_doc run doc
        with Engine.Budget_exceeded _ -> abort_run s rs))
    (List.rev s.runs_rev);
  finish s

let matching_names outcomes =
  List.filter_map
    (fun o -> match o.items with [] -> None | _ :: _ -> Some o.query_name)
    outcomes

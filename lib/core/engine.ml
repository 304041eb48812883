module Ast = Xaos_xpath.Ast
module Xtree = Xaos_xpath.Xtree
module Xdag = Xaos_xpath.Xdag
module Symbol = Xaos_xml.Symbol

(* Telemetry hook points, process-global across engines (per-run figures
   stay in the per-engine {!Stats.t}). Every operation below is a
   flag-guarded no-op unless a sink is installed. *)
module Tel = Xaos_obs.Telemetry
module Trc = Xaos_obs.Tracer

let counter_elements =
  Tel.counter ~help:"element start events fed to engines"
    "xaos_engine_elements_total"

let counter_stored =
  Tel.counter ~help:"elements found relevant and stored"
    "xaos_engine_elements_stored_total"

let counter_structures =
  Tel.counter ~help:"matching structures allocated"
    "xaos_engine_structures_created_total"

let counter_propagations =
  Tel.counter ~help:"matching placements, confirmed pushes and optimistic pulls"
    "xaos_engine_propagations_total"

let gauge_live =
  Tel.gauge ~help:"live matching structures (created - refuted)"
    "xaos_engine_live_structures"

let gauge_retained_bytes =
  Tel.gauge ~help:"estimated bytes held in live matching structures"
    "xaos_engine_retained_bytes"

let hist_lifetime =
  Xaos_obs.Histogram.create ~unit_:"elements"
    ~help:"elements opened during a matching structure's lifetime, \
           recorded when the structure resolves"
    "engine/structure_lifetime"

(* Emission latency in document bytes: how much input streamed past
   between a result becoming decidable (its structure turning Satisfied)
   and the result actually being emitted. Eager emission records 0 by
   construction; deferred emission measures the Section 4.4 end-of-run
   collection against the byte offset stamped at satisfaction time. *)
let hist_emission =
  Xaos_obs.Histogram.create ~unit_:"bytes"
    ~help:"bytes streamed between a result becoming decidable and its \
           emission"
    "engine/emission"

type emission =
  | Deferred
  | Eager
  | Earliest

type config = {
  boolean_subtrees : bool;
  relevance_filter : bool;
  emission : emission;
}

let default_config =
  { boolean_subtrees = true; relevance_filter = true; emission = Deferred }

exception Budget_exceeded of { live : int; budget : int }

type level_requirement =
  | Exact of int
  | Any

(* Static, per-x-node view of the query, precomputed from the x-tree and
   x-dag so the per-event work only touches arrays. *)
type slot_info = {
  slot_axis : Ast.axis;
  slot_target : int;  (* x-node id of the x-tree child *)
}

type tree_parent = {
  up_axis : Ast.axis;
  up_node : int;  (* x-node id of the x-tree parent *)
  up_slot : int;  (* index of this x-node in the parent's slots *)
}

type xinfo = {
  label : Xtree.label;
  label_sym : Symbol.t;
      (* interned name test, resolved once at engine creation — never per
         event; [Symbol.none] for wildcard and Root labels *)
  label_wild : bool;  (* the label is the wildcard node test *)
  label_slot : int;
      (* dense per-engine index over the distinct name-test symbols of
         this query (x-nodes sharing a name share the slot); [-1] for
         wildcard and Root. Interest counting indexes a slot array of
         this size rather than one sized by the global vocabulary. *)
  attr_tests : Ast.attr_test list;  (* conjunction; usually empty *)
  text_tests : Ast.text_test list;  (* conjunction; decided at end events *)
  dag_parents : (Xdag.kind * int) array;
  slots : slot_info array;
  pointer_slots : bool array;
  tree_parent : tree_parent option;
  output : bool;
}

(* One open document element is represented by the list of matching
   structures created at its start event, tagged with their x-node ids;
   they are resolved (children of the x-tree first, i.e. by descending
   x-node id) at its end event. The frame records the element's document
   level so that an engine fed a dispatch-filtered (sparse) event stream
   still closes text buffers and restores its depth correctly. *)
type frame = {
  f_level : int;
  f_matches : Matching.t list;
}

(* Tag-interest notifications for shared multi-query dispatch: the engine
   reports when the set of element names its looking-for frontier can
   match changes. A callback fires only on 0 <-> nonzero transitions of a
   tag's active x-node count, so a subscriber maintains an exact tag ->
   interested-engines index with O(1) amortized work per transition. *)
type interest_listener = {
  on_sym : Symbol.t -> bool -> unit;
  on_wildcard : bool -> unit;
}

type interest_state = {
  listener : interest_listener;
  blocked : int array;
      (** per x-node: number of x-dag parents whose open-match stack is
          empty; the node is {e active} (its tag is looked for, levels
          ignored) iff the count is 0 *)
  sym_active : int array;
      (** per label slot (see {!xinfo.label_slot}): number of active
          x-nodes carrying that name test; no hashing on any
          transition *)
  mutable wildcard_active : int;
}

type t = {
  dag : Xdag.t;
  info : xinfo array;
  config : config;
  budget : int;
      (** cap on live (created - refuted) matching structures; exceeding it
          raises {!Budget_exceeded} instead of growing without bound *)
  eager : bool;
  earliest : bool;
      (** earliest-decision emission: emit each primary-output structure
          the moment it is certainly in the final result set (stable and
          anchored, see below), in document order via {!field-pending} *)
  ordered_resolution : bool;
      (** whether same-element (self / or-self) dependencies exist, in
          which case a frame's structures must resolve in descending
          x-node id order; without them any order is correct and the sort
          is skipped *)
  on_match : (Item.t -> unit) option;
  output_ids : int array;
  mutable serial : int;
  mutable next_id : int;
  open_stacks : Matching.t list array;
      (** [open_stacks.(v)]: structures of open elements matching x-node
          [v], innermost (deepest level) first; levels strictly decrease
          down the stack since open elements are nested *)
  mutable frames : frame list;
  mutable depth : int;
  root_struct : Matching.t;
  stats : Stats.t;
  mutable finished : bool;
  mutable aborting : bool;
      (** set by {!abort}: elements being closed virtually have incomplete
          string values, so non-monotone text tests must refute *)
  mutable sparse : bool;
      (** set by {!subscribe_interest}: the engine accepts event streams
          with suppressed (start, end) pairs — levels must still nest but
          need not be contiguous *)
  mutable interest : interest_state option;
  mutable eager_items : Item.t list;  (* reversed *)
  mutable pending : Matching.t array;
      (** earliest mode: binary min-heap on document-order item id of
          the primary-output structures awaiting a verdict; emission
          flushes from the top, so [on_match] fires in document order *)
  mutable pending_len : int;
  mutable final : Result_set.t option;
      (** memoized {!finish} result: a second finish must not replay
          [on_match] or re-record emission latencies *)
  has_text_tests : bool;
  mutable text_buffers : (int * Buffer.t) list;
      (** (level, buffer) for open elements whose structures carry text
          tests, innermost first; character data is appended to all of
          them, since an element's string value includes its descendants'
          text *)
  mutable candidate_cache : int array array;
      (** per symbol id: candidate x-nodes in x-dag topological order,
          memoized per distinct symbol so a start event does not rescan
          every x-node; entries are {!uncomputed} until first use and the
          array grows on demand as new symbols appear *)
  mutable stream_byte : int;
      (** current stream byte offset, pushed in by the driver (0 when no
          driver pushes it); stamped onto structures at satisfaction time
          for emission-latency observation *)
}

(* Physical-equality sentinel for not-yet-computed cache entries: a real
   candidate array never aliases it, and a [-1] element can never be an
   x-node id, so the [==] test is unambiguous. *)
let uncomputed : int array = Array.make 1 (-1)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Eager emission (Section 5.1(b)) is sound when the expression uses only
   forward axes (so satisfaction at an end event is final: nothing is
   optimistic), has a single output x-node, and every x-node outside the
   output's subtree sits on the bare chain from Root to the output (so the
   relevance filter alone certifies everything above the output, and no
   side predicate can still be pending when the output element ends). *)
let eager_allowed (xtree : Xtree.t) =
  match xtree.outputs with
  | [ out ] ->
    let forward_only =
      Array.for_all
        (fun (n : Xtree.xnode) ->
          List.for_all (fun (axis, _) -> Ast.forward axis) n.children)
        xtree.nodes
    in
    let rec chain_ok (n : Xtree.xnode) =
      (* walking up from the output: each proper ancestor must have
         exactly one x-tree child (its chain successor) and no pending
         constraints of its own — a text test is only decided at the
         ancestor's end event, long after the output element closed *)
      match n.parent_edge with
      | None -> true
      | Some (_, parent) ->
        List.length parent.children = 1 && parent.texts = [] && chain_ok parent
    in
    forward_only && chain_ok out
  | _ -> false

let build_info config eager (dag : Xdag.t) =
  let xtree = dag.xtree in
  let has_output = Xtree.subtree_has_output xtree in
  let slot_of_sym : (Symbol.t, int) Hashtbl.t = Hashtbl.create 8 in
  Array.map
    (fun (node : Xtree.xnode) ->
      let slots =
        Array.of_list
          (List.map
             (fun (axis, (child : Xtree.xnode)) ->
               { slot_axis = axis; slot_target = child.id })
             node.children)
      in
      let pointer_slots =
        Array.map
          (fun s ->
            (not eager)
            && ((not config.boolean_subtrees) || has_output.(s.slot_target)))
          slots
      in
      let tree_parent =
        Option.map
          (fun (axis, (parent : Xtree.xnode)) ->
            let up_slot =
              let rec index i = function
                | [] -> assert false
                | (_, (c : Xtree.xnode)) :: rest ->
                  if c.id = node.id then i else index (i + 1) rest
              in
              index 0 parent.children
            in
            { up_axis = axis; up_node = parent.id; up_slot })
          node.parent_edge
      in
      let label_sym, label_wild =
        match node.label with
        | Xtree.Test (Ast.Name n) -> (Symbol.intern n, false)
        | Xtree.Test Ast.Wildcard -> (Symbol.none, true)
        | Xtree.Root -> (Symbol.none, false)
      in
      let label_slot =
        if Symbol.equal label_sym Symbol.none then -1
        else
          match Hashtbl.find_opt slot_of_sym label_sym with
          | Some slot -> slot
          | None ->
            let slot = Hashtbl.length slot_of_sym in
            Hashtbl.add slot_of_sym label_sym slot;
            slot
      in
      {
        label = node.label;
        label_sym;
        label_wild;
        label_slot;
        attr_tests = node.attrs;
        text_tests = node.texts;
        dag_parents = Array.of_list dag.parents.(node.id);
        slots;
        pointer_slots;
        tree_parent;
        output = node.output;
      })
    xtree.nodes

let create ?(config = default_config) ?(budget = max_int) ?on_match
    (dag : Xdag.t) =
  let eager =
    config.emission = Eager && config.relevance_filter
    && eager_allowed dag.xtree
  in
  let earliest = config.emission = Earliest in
  let info = build_info config eager dag in
  let root_item =
    { Item.id = 0; sym = Symbol.intern Xaos_xml.Dom.root_tag; level = 0 }
  in
  let root_struct =
    Matching.create ~serial:0 ~xnode:dag.xtree.root.id ~item:root_item
      ~pointer_slots:info.(dag.xtree.root.id).pointer_slots
  in
  (* The root is reachable from itself by definition; stability still has
     to be earned (all its slot entries final), see [try_stabilize]. *)
  if earliest then root_struct.Matching.anchored <- true;
  let open_stacks = Array.make (Xtree.size dag.xtree) [] in
  open_stacks.(dag.xtree.root.id) <- [ root_struct ];
  let ordered_resolution =
    Array.exists
      (List.exists (fun (kind, _) ->
           match kind with
           | Xdag.Kself | Xdag.Kdescendant_or_self -> true
           | Xdag.Kchild | Xdag.Kdescendant -> false))
      dag.children
  in
  {
    dag;
    info;
    config;
    budget;
    eager;
    earliest;
    ordered_resolution;
    on_match;
    output_ids =
      Array.of_list (List.map (fun (n : Xtree.xnode) -> n.id) dag.xtree.outputs);
    serial = 1;
    next_id = 1;
    open_stacks;
    frames = [];
    depth = 0;
    root_struct;
    stats = Stats.create ();
    finished = false;
    aborting = false;
    sparse = false;
    interest = None;
    eager_items = [];
    pending = [||];
    pending_len = 0;
    final = None;
    has_text_tests =
      Array.exists (fun (n : Xtree.xnode) -> n.texts <> []) dag.xtree.nodes;
    text_buffers = [];
    (* start small and grow on demand: under shared dispatch an engine
       only ever sees the symbols it is interested in, so sizing this at
       [Symbol.count ()] would tax sessions with many engines over large
       vocabularies for slots never touched *)
    candidate_cache = Array.make 16 uncomputed;
    stream_byte = 0;
  }

let set_stream_byte t b = t.stream_byte <- b

(* Candidate x-nodes for an element-name symbol, in topological order
   (Kself edges need same-event witnesses registered first). Computed once
   per distinct symbol; the per-event lookup is two array loads and a
   physical-equality test — no hashing, no allocation. *)
let candidates t sym =
  let cache =
    if sym < Array.length t.candidate_cache then t.candidate_cache
    else begin
      let cap = max (sym + 1) (2 * Array.length t.candidate_cache) in
      let cache = Array.make cap uncomputed in
      Array.blit t.candidate_cache 0 cache 0 (Array.length t.candidate_cache);
      t.candidate_cache <- cache;
      cache
    end
  in
  let arr = Array.unsafe_get cache sym in
  if arr != uncomputed then arr
  else begin
    let root_id = t.dag.xtree.root.id in
    let wild = Symbol.matches_wildcard sym in
    let matching =
      Array.to_list t.dag.topo
      |> List.filter (fun v ->
             v <> root_id
             &&
             let i = t.info.(v) in
             Symbol.equal i.label_sym sym || (i.label_wild && wild))
    in
    let arr = Array.of_list matching in
    cache.(sym) <- arr;
    arr
  end

let emits_eagerly t = t.eager

let stats t = t.stats

let depth t = t.depth

(* ------------------------------------------------------------------ *)
(* Tag-interest tracking (shared dispatch support)                     *)
(* ------------------------------------------------------------------ *)

let interest_activate s (info : xinfo array) v =
  let i = info.(v) in
  if i.label_slot >= 0 then begin
    let c = s.sym_active.(i.label_slot) + 1 in
    s.sym_active.(i.label_slot) <- c;
    if c = 1 then s.listener.on_sym i.label_sym true
  end
  else if i.label_wild then begin
    s.wildcard_active <- s.wildcard_active + 1;
    if s.wildcard_active = 1 then s.listener.on_wildcard true
  end

let interest_deactivate s (info : xinfo array) v =
  let i = info.(v) in
  if i.label_slot >= 0 then begin
    let c = s.sym_active.(i.label_slot) - 1 in
    s.sym_active.(i.label_slot) <- c;
    if c = 0 then s.listener.on_sym i.label_sym false
  end
  else if i.label_wild then begin
    s.wildcard_active <- s.wildcard_active - 1;
    if s.wildcard_active = 0 then s.listener.on_wildcard false
  end

(* The open-match stack of x-node [p] went empty -> nonempty: every x-dag
   child of [p] loses one blocker; a child reaching zero blockers becomes
   active (its tag joins the interest set). The converse on
   nonempty -> empty. Both are no-ops without a subscriber. *)
let stack_became_nonempty t p =
  match t.interest with
  | None -> ()
  | Some s ->
    List.iter
      (fun ((_ : Xdag.kind), c) ->
        let b = s.blocked.(c) - 1 in
        s.blocked.(c) <- b;
        if b = 0 then interest_activate s t.info c)
      t.dag.children.(p)

let stack_became_empty t p =
  match t.interest with
  | None -> ()
  | Some s ->
    List.iter
      (fun ((_ : Xdag.kind), c) ->
        if s.blocked.(c) = 0 then interest_deactivate s t.info c;
        s.blocked.(c) <- s.blocked.(c) + 1)
      t.dag.children.(p)

let subscribe_interest t listener =
  (match t.interest with
  | Some _ -> invalid_arg "Engine.subscribe_interest: already subscribed"
  | None -> ());
  t.sparse <- true;
  let n = Array.length t.info in
  let blocked = Array.make n 0 in
  for v = 0 to n - 1 do
    Array.iter
      (fun ((_ : Xdag.kind), p) ->
        if t.open_stacks.(p) = [] then blocked.(v) <- blocked.(v) + 1)
      t.info.(v).dag_parents
  done;
  let slots =
    Array.fold_left (fun acc i -> max acc (i.label_slot + 1)) 0 t.info
  in
  let s =
    { listener; blocked; sym_active = Array.make (max 1 slots) 0;
      wildcard_active = 0 }
  in
  t.interest <- Some s;
  let root_id = t.dag.xtree.root.id in
  for v = 0 to n - 1 do
    if v <> root_id && blocked.(v) = 0 then interest_activate s t.info v
  done

let wants_text t = t.has_text_tests && t.text_buffers <> []

(* Under sparse feeding the engine no longer sees every start event, so
   its element counter would drift from document ids; the dispatcher owns
   the document-order counter and syncs it in before each delivered start
   event, keeping reported items identical to a full feed. *)
let sync_next_id t id = t.next_id <- id

(* ------------------------------------------------------------------ *)
(* Relevance (the looking-for filtering, Section 4.1)                  *)
(* ------------------------------------------------------------------ *)

(* Does the x-dag parent [p], reached over an edge of [kind], have an open
   match at a level compatible with a new element at [level]? All open
   matches lie on the current ancestor path, so the containment part of
   consistency is implied and only levels need checking. For [Kself], the
   witness is the same element's own match for [p], registered earlier in
   this very start event thanks to topological candidate order. *)
let rec stack_satisfies kind level stack =
  match stack with
  | [] -> false
  | (m : Matching.t) :: rest ->
    let ml = m.item.level in
    (match kind with
    | Xdag.Kchild -> ml = level - 1
    | Xdag.Kdescendant -> ml < level
    | Xdag.Kself -> ml = level
    | Xdag.Kdescendant_or_self -> ml <= level)
    || stack_satisfies kind level rest

let relevant t v ~level =
  let parents = t.info.(v).dag_parents in
  let n = Array.length parents in
  let rec loop i =
    i >= n
    ||
    let kind, p = parents.(i) in
    stack_satisfies kind level t.open_stacks.(p) && loop (i + 1)
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

(* One pass over the attribute list per test, stopping at the first
   occurrence of the key (first occurrence wins, as in
   {!Ast.attr_test_matches} over an assoc lookup) — no option or closure
   allocation on the start-event path. *)
let rec attr_test_ok (test : Ast.attr_test) attrs =
  match attrs with
  | [] -> false (* attribute absent: both [@k] and [@k='v'] fail *)
  | { Xaos_xml.Event.attr_name; attr_value } :: rest ->
    if String.equal attr_name test.attr_key then
      match test.attr_value with
      | None -> true (* existence test *)
      | Some expected -> String.equal expected attr_value
    else attr_test_ok test rest

let rec attr_tests_ok tests attrs =
  match tests with
  | [] -> true
  | test :: rest -> attr_test_ok test attrs && attr_tests_ok rest attrs

(* The open witness that made x-node [v] relevant at [level]: the
   innermost level-consistent open match of the first x-dag parent that
   has one. Recorded as the parent cause of a Created trace event; only
   evaluated when the tracer is on, never on the production hot path. *)
let witness_serial t v ~level =
  let parents = t.info.(v).dag_parents in
  let n = Array.length parents in
  let rec loop i =
    if i >= n then -1
    else begin
      let kind, p = parents.(i) in
      let rec scan = function
        | [] -> loop (i + 1)
        | (m : Matching.t) :: rest ->
          let ml = m.item.level in
          let ok =
            match kind with
            | Xdag.Kchild -> ml = level - 1
            | Xdag.Kdescendant -> ml < level
            | Xdag.Kself -> ml = level
            | Xdag.Kdescendant_or_self -> ml <= level
          in
          if ok then m.serial else scan rest
      in
      scan t.open_stacks.(p)
    end
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Earliest-decision emission                                          *)
(* ------------------------------------------------------------------ *)

(* Generalizes the narrow eager mode to arbitrary expressions, per the
   earliest-answering direction (Gienieczko et al.): emit each candidate
   at the first event where its membership in the final result set is
   decided, instead of holding everything to end of document because an
   optimistic backward-axis placement upstream might still refute it.

   A structure is latched [stable] once it is certain to be Satisfied in
   the completed document whatever the rest of the stream contains:

   - a resolved [Satisfied] structure with [undecided = 0]: every current
     slot entry is itself stable, so no slot can ever empty again and the
     refutation cascade cannot reach it; a resolved structure gains no
     new entries, so the state is final;
   - a still-open [Pending] structure with all slots filled, [undecided =
     0] and no text test: its attribute tests passed at creation, the
     filled slots can never empty (only forward slots fill while open —
     backward slots stay empty until resolution and block this case
     through [satisfied_now]), and no text verdict is outstanding, so its
     own resolution is guaranteed to find it satisfied. Later pushes only
     add entries, never remove, so the latch is monotone. The aborting
     path is covered too: a latched structure has no [text()='v'] test,
     the one construct a virtual close refutes.

   [anchored] marks certain reachability from the final satisfied root
   structure — i.e. membership in a total matching: seeded at the root,
   propagated into the slot entries of structures that are both stable
   and anchored (and onto children pushed into such structures later).
   Stable entries are never removed from slots, so an anchored chain is
   intact at end of document by induction.

   [stable && anchored] therefore means the deferred Section 4.4
   collection is guaranteed to reach and emit this structure — so it can
   be emitted the moment both latches hold. Refutation, conversely,
   discards the candidate without ever emitting. *)
let rec try_stabilize t (m : Matching.t) =
  if
    t.earliest && (not m.stable)
    && m.undecided = 0
    && (match m.state with
       | Matching.Satisfied -> true
       | Matching.Pending ->
         Matching.satisfied_now m && t.info.(m.xnode).text_tests = []
       | Matching.Refuted -> false)
  then begin
    m.stable <- true;
    (* an open-latched structure is decided here, before its resolution
       ever stamps it *)
    if m.sat_byte < 0 then m.sat_byte <- t.stream_byte;
    if m.anchored then anchor_slots t m;
    (* this structure no longer counts as undecided wherever it has been
       placed; targets that reach zero may latch in turn *)
    List.iter
      (fun (p : Matching.placement) ->
        let target = p.Matching.p_target in
        if target.Matching.state <> Matching.Refuted then begin
          target.Matching.undecided <- target.Matching.undecided - 1;
          try_stabilize t target
        end)
      m.placements;
    (* early propagation: a structure that latches while its element is
       still open can be pushed into its forward-axis targets right now
       instead of waiting for its end event — the consistent targets are
       its ancestors' structures, all open since before this element
       started, and no element opening below can add one, so the target
       set at resolution would be exactly this one *)
    if m.state = Matching.Pending then early_push t m
  end

and anchor t (m : Matching.t) =
  if not m.anchored then begin
    m.anchored <- true;
    (* only a stable structure's entries are final; a pending one
       propagates when it latches (see [try_stabilize]) *)
    if m.stable then anchor_slots t m
  end

and anchor_slots t (m : Matching.t) =
  Array.iter
    (function
      | Matching.Pointers store ->
        for i = 0 to store.len - 1 do
          anchor t store.entries.(i).e_child
        done
      | Matching.Counter _ -> ())
    m.slots

(* Restricted to strict forward axes: for [Self] / [Descendant_or_self]
   the witness could be the same element's own structure, whose openness
   at resolution depends on the in-frame resolution order — pushing early
   there could create placements the deferred path never makes. *)
and early_push t (m : Matching.t) =
  match t.info.(m.xnode).tree_parent with
  | Some { up_axis = (Ast.Child | Ast.Descendant) as up_axis; up_node; up_slot }
    ->
    m.early_pushed <- true;
    let l = m.item.Item.level in
    List.iter
      (fun (target : Matching.t) ->
        let ml = target.Matching.item.Item.level in
        if match up_axis with Ast.Child -> ml = l - 1 | _ -> ml < l then
          place_counted t ~optimistic:false ~child:m ~target ~slot:up_slot)
      t.open_stacks.(up_node)
  | Some _ | None -> ()

and place_counted t ~optimistic ~child ~target ~slot =
  Matching.place ~child ~target ~slot;
  if t.earliest then begin
    (* a new entry of a stable anchored structure is itself part of a
       total matching if it survives; the stability gate still applies
       at emission time *)
    if target.Matching.stable && target.Matching.anchored then
      anchor t child;
    (* an already-stable child adds no undecided count, so this entry may
       be the one that completes the target's latch conditions — without
       this the child's own latch walk (which ran before the placement
       existed) never reaches the target *)
    if child.Matching.stable then try_stabilize t target
  end;
  t.stats.propagations <- t.stats.propagations + 1;
  Tel.incr counter_propagations;
  if Trc.enabled () then
    Trc.propagated ~optimistic ~child:child.Matching.serial
      ~target:target.Matching.serial

(* Refutation with the earliest-decision hook: every undo of an
   optimistic placement can zero a surviving target's undecided count and
   latch it stable. *)
let refute_struct t m =
  if t.earliest then
    Matching.refute ~on_undo:(fun target -> try_stabilize t target)
      ~stats:t.stats m
  else Matching.refute ~stats:t.stats m

(* The pending-emission buffer: a binary min-heap on document-order item
   id over every primary-output structure created so far. Flushing pops
   while the top is decided — refuted tops are dropped, stable anchored
   tops are emitted — and stops at the first undecided structure, so the
   [on_match] stream is in document order: an item emitted at the
   end-of-document residual pass always has a larger id than every item
   emitted early (a smaller undecided id would have blocked the flush). *)
let heap_swap t i j =
  let tmp = t.pending.(i) in
  t.pending.(i) <- t.pending.(j);
  t.pending.(j) <- tmp

let heap_id t i = t.pending.(i).Matching.item.Item.id

let heap_push t (m : Matching.t) =
  let cap = Array.length t.pending in
  if t.pending_len = cap then begin
    let grown = Array.make (max 8 (2 * cap)) m in
    Array.blit t.pending 0 grown 0 t.pending_len;
    t.pending <- grown
  end;
  t.pending.(t.pending_len) <- m;
  t.pending_len <- t.pending_len + 1;
  let i = ref (t.pending_len - 1) in
  while !i > 0 && heap_id t ((!i - 1) / 2) > heap_id t !i do
    heap_swap t ((!i - 1) / 2) !i;
    i := (!i - 1) / 2
  done

let heap_pop t =
  t.pending_len <- t.pending_len - 1;
  t.pending.(0) <- t.pending.(t.pending_len);
  let i = ref 0 in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let smallest = ref !i in
    if l < t.pending_len && heap_id t l < heap_id t !smallest then
      smallest := l;
    if r < t.pending_len && heap_id t r < heap_id t !smallest then
      smallest := r;
    if !smallest <> !i then begin
      heap_swap t !smallest !i;
      i := !smallest
    end
    else moving := false
  done

let emit_now t (m : Matching.t) =
  m.Matching.emitted <- true;
  if Trc.enabled () then Trc.emitted ~serial:m.serial ~item_id:m.item.Item.id;
  if Tel.enabled () && m.sat_byte >= 0 then
    Xaos_obs.Histogram.record hist_emission (t.stream_byte - m.sat_byte);
  match t.on_match with
  | Some f -> f m.item
  | None -> ()

let rec flush_ready t =
  if t.pending_len > 0 then begin
    let m = t.pending.(0) in
    if m.Matching.state = Matching.Refuted then begin
      heap_pop t;
      flush_ready t
    end
    else if m.Matching.stable && m.Matching.anchored then begin
      heap_pop t;
      emit_now t m;
      flush_ready t
    end
  end

let start_element t ?(attrs = []) ~sym ~level () =
  if t.finished then invalid_arg "Engine.start_element: already finished";
  if t.sparse then begin
    if level <= t.depth then
      invalid_arg
        (Printf.sprintf
           "Engine.start_element: level %d does not nest inside current \
            depth %d"
           level t.depth)
  end
  else if level <> t.depth + 1 then
    invalid_arg
      (Printf.sprintf
         "Engine.start_element: level %d does not extend current depth %d"
         level t.depth);
  Tel.incr counter_elements;
  let id = t.next_id in
  t.next_id <- id + 1;
  t.depth <- level;
  let st = t.stats in
  st.elements_total <- st.elements_total + 1;
  if level > st.max_depth then st.max_depth <- level;
  (* Candidates come in x-dag topological order, so same-element witnesses
     for Kself edges are registered before they are needed. This is the
     hottest loop of the engine: written without closures, and the item
     descriptor shared by the element's structures is allocated only when
     a first structure is. *)
  let cands = candidates t sym in
  let n = Array.length cands in
  if n = 0 then begin
    st.elements_discarded <- st.elements_discarded + 1;
    t.frames <- { f_level = level; f_matches = [] } :: t.frames
  end
  else begin
    let frame = ref [] in
    let item = ref None in
    for i = 0 to n - 1 do
      let v = Array.unsafe_get cands i in
      if
        attr_tests_ok t.info.(v).attr_tests attrs
        && ((not t.config.relevance_filter) || relevant t v ~level)
      then begin
        let item =
          match !item with
          | Some it -> it
          | None ->
            let it = { Item.id; sym; level } in
            item := Some it;
            it
        in
        let m =
          Matching.create ~serial:t.serial ~xnode:v ~item
            ~pointer_slots:t.info.(v).pointer_slots
        in
        if Trc.enabled () then
          Trc.created ~serial:t.serial ~xnode:v ~item_id:id
            ~tag:(Symbol.name sym) ~level
            ~parent_serial:(witness_serial t v ~level);
        t.serial <- t.serial + 1;
        st.structures_created <- st.structures_created + 1;
        st.retained_bytes <- st.retained_bytes + Matching.approx_bytes m;
        if st.retained_bytes > st.retained_peak_bytes then
          st.retained_peak_bytes <- st.retained_bytes;
        Tel.incr counter_structures;
        (match t.open_stacks.(v) with
        | [] ->
          t.open_stacks.(v) <- [ m ];
          stack_became_nonempty t v
        | _ :: _ as stack -> t.open_stacks.(v) <- m :: stack);
        if
          t.earliest
          && Array.length t.output_ids > 0
          && v = t.output_ids.(0)
        then heap_push t m;
        frame := m :: !frame
      end
    done;
    (match !frame with
    | [] -> st.elements_discarded <- st.elements_discarded + 1
    | _ :: _ ->
      st.elements_stored <- st.elements_stored + 1;
      Tel.incr counter_stored;
      if
        t.has_text_tests
        && List.exists
             (fun (m : Matching.t) -> t.info.(m.xnode).text_tests <> [])
             !frame
      then t.text_buffers <- (level, Buffer.create 64) :: t.text_buffers);
    t.frames <- { f_level = level; f_matches = !frame } :: t.frames;
    let live = st.structures_created - st.structures_refuted in
    if live > st.live_peak then st.live_peak <- live;
    Tel.set_gauge gauge_live live;
    Tel.set_gauge gauge_retained_bytes st.retained_bytes;
    if live > t.budget then
      raise (Budget_exceeded { live; budget = t.budget })
  end

(* Character data: append to the buffer of every open element that is
   waiting to decide a text test. *)
let text_event t s =
  if t.has_text_tests then
    List.iter (fun (_, buf) -> Buffer.add_string buf s) t.text_buffers

(* Resolve the matching structure [m] of x-node [v] at the end event of
   its element (paper, Sections 4.2-4.3):
   1. fill backward-axis slots by optimistically pulling every consistent
      open candidate (they are all ancestors, still unresolved);
   2. if all slots are filled, the structure represents a (possibly
      optimistic) total matching: push it into the consistent open
      structures of its x-tree parent when the connecting axis is forward
      (backward connections were/will be pulled from the other side);
   3. otherwise refute it, undoing any optimistic placements that already
      involve it. *)
(* Whether an open match at level [ml] is a consistent partner for a
   structure at level [l] over the given axis, the structure being on the
   descendant side for backward axes and the ancestor side for forward
   ones. All open matches are on the current ancestor path, so only the
   level needs checking. *)
let level_ok axis ~l ~ml =
  match axis with
  | Ast.Child | Ast.Parent -> ml = l - 1
  | Ast.Descendant | Ast.Ancestor -> ml < l
  | Ast.Self -> ml = l
  | Ast.Descendant_or_self -> ml <= l
  | Ast.Ancestor_or_self -> ml < l (* the "self" case is handled apart *)

let rec place_consistent t axis ~l ~target ~slot stack =
  match stack with
  | [] -> ()
  | (cand : Matching.t) :: rest ->
    (* the pulled candidates are still-open ancestors: their own
       matchings are unresolved, so this placement is optimistic *)
    if level_ok axis ~l ~ml:cand.item.level then
      place_counted t ~optimistic:true ~child:cand ~target ~slot;
    place_consistent t axis ~l ~target ~slot rest

let rec push_consistent t axis ~l ~child ~slot stack =
  match stack with
  | [] -> ()
  | (target : Matching.t) :: rest ->
    if level_ok axis ~l ~ml:target.item.level then
      place_counted t ~optimistic:false ~child ~target ~slot;
    push_consistent t axis ~l ~child ~slot rest

let rec same_element_match frame xnode =
  match frame with
  | [] -> None
  | (m : Matching.t) :: rest ->
    if m.xnode = xnode then Some m else same_element_match rest xnode

let resolve t frame ~text (m : Matching.t) =
  (* structure lifetime in elements: how many elements started while it
     was open; [m.item.id] is the element id at creation *)
  Xaos_obs.Histogram.record hist_lifetime (t.next_id - m.item.id);
  let v = m.xnode in
  (match t.open_stacks.(v) with
  | top :: rest when top == m ->
    t.open_stacks.(v) <- rest;
    (match rest with [] -> stack_became_empty t v | _ :: _ -> ())
  | _ -> assert false);
  let info = t.info.(v) in
  let text_ok =
    match info.text_tests with
    | [] -> true
    | tests ->
      let value = match text with Some s -> s | None -> assert false in
      (* A virtually-closed element has an incomplete string value:
         [contains] is monotone under extension so a positive verdict is
         final, but [text()='v'] could be revoked by more text — refute. *)
      (not
         (t.aborting
         && List.exists
              (fun (tt : Ast.text_test) -> tt.text_op = Ast.Text_equals)
              tests))
      && List.for_all (fun test -> Ast.text_test_matches test value) tests
  in
  if not text_ok then refute_struct t m
  else begin
  let l = m.item.level in
  for i = 0 to Array.length info.slots - 1 do
    let s = Array.unsafe_get info.slots i in
    match s.slot_axis with
    | Ast.Parent | Ast.Ancestor ->
      place_consistent t s.slot_axis ~l ~target:m ~slot:i
        t.open_stacks.(s.slot_target)
    | Ast.Ancestor_or_self -> (
      place_consistent t s.slot_axis ~l ~target:m ~slot:i
        t.open_stacks.(s.slot_target);
      (* The "or self" witness is this same element's structure for the
         target x-node; it resolved earlier in this frame (larger id),
         so its verdict is already known. *)
      match same_element_match frame s.slot_target with
      | Some same when same.state = Matching.Satisfied ->
        place_counted t ~optimistic:false ~child:same ~target:m ~slot:i
      | Some _ | None -> ())
    | Ast.Child | Ast.Descendant | Ast.Self | Ast.Descendant_or_self -> ()
  done;
  if Matching.satisfied_now m then begin
    m.state <- Matching.Satisfied;
    if m.sat_byte < 0 then m.sat_byte <- t.stream_byte;
    (match info.tree_parent with
    | None -> ()
    | Some _ when m.early_pushed ->
      (* already placed into every consistent target when it latched
         stable while open — pushing again would duplicate entries *)
      ()
    | Some { up_axis; up_node; up_slot } -> (
      match up_axis with
      | Ast.Child | Ast.Descendant | Ast.Self | Ast.Descendant_or_self ->
        push_consistent t up_axis ~l ~child:m ~slot:up_slot
          t.open_stacks.(up_node)
      | Ast.Parent | Ast.Ancestor | Ast.Ancestor_or_self -> ()));
    if t.eager && info.output then begin
      if Trc.enabled () then
        Trc.emitted ~serial:m.serial ~item_id:m.item.id;
      (* emission follows satisfaction within the same event *)
      Xaos_obs.Histogram.record hist_emission 0;
      t.eager_items <- m.item :: t.eager_items;
      match t.on_match with
      | Some f -> f m.item
      | None -> ()
    end;
    (* the confirmed pushes above ran first, so if this latches, the
       undecided decrement reaches every target placed into *)
    try_stabilize t m
  end
  else refute_struct t m
  end

let end_element t =
  match t.frames with
  | [] -> invalid_arg "Engine.end_element: no open element"
  | { f_level = closing_level; f_matches = frame } :: rest ->
    t.frames <- rest;
    (* under sparse feeding the enclosing *delivered* element need not sit
       at [closing_level - 1]; the next outer frame knows its level *)
    t.depth <- (match rest with [] -> 0 | outer :: _ -> outer.f_level);
    let text =
      match t.text_buffers with
      | (level, buf) :: deeper when level = closing_level ->
        t.text_buffers <- deeper;
        Some (Buffer.contents buf)
      | _ -> None
    in
    (match frame with
    | [] -> ()
    | [ m ] -> resolve t frame ~text m
    | _ :: _ :: _ ->
      (* Children of the x-tree resolve before their parents so that
         same-element dependencies (self and or-self axes) are ready;
         descending x-node id is exactly that order. Structures were
         prepended in topological order, which need not be id order, so
         sort — but only when such dependencies can exist at all. *)
      let matches =
        if t.ordered_resolution then
          List.sort
            (fun (a : Matching.t) (b : Matching.t) ->
              Int.compare b.xnode a.xnode)
            frame
        else frame
      in
      List.iter (fun m -> resolve t matches ~text m) matches);
    (* verdicts only change at end events (resolution and the refutation
       cascade), so this is the only flush point needed mid-document *)
    if t.earliest then flush_ready t

let feed t event =
  match event with
  | Xaos_xml.Event.Start_element { sym; attributes; level; _ } ->
    start_element t ~attrs:attributes ~sym ~level ()
  | Xaos_xml.Event.End_element _ -> end_element t
  | Xaos_xml.Event.Text s -> text_event t s
  | Xaos_xml.Event.Comment _ | Xaos_xml.Event.Processing_instruction _ -> ()

(* Feed a prebuilt tree directly, without materializing intermediate
   events — the hot path of the χαος(DOM) configuration. *)
let rec feed_nodes t nodes =
  match nodes with
  | [] -> ()
  | Xaos_xml.Dom.Element e :: rest ->
    start_element t ~attrs:e.attributes ~sym:e.sym ~level:e.level ();
    feed_nodes t e.children;
    end_element t;
    feed_nodes t rest
  | Xaos_xml.Dom.Text s :: rest ->
    text_event t s;
    feed_nodes t rest
  | (Xaos_xml.Dom.Comment _ | Xaos_xml.Dom.Pi _) :: rest -> feed_nodes t rest

let feed_doc t (doc : Xaos_xml.Dom.doc) = feed_nodes t doc.root.children

(* ------------------------------------------------------------------ *)
(* Finishing and results                                               *)
(* ------------------------------------------------------------------ *)

(* The matching count is only computed when the caller explicitly ran
   with full pointer slots (boolean_subtrees = false): it is an
   introspection artifact (the paper's Figure 4), and counting traverses
   every retained structure, which would tax ordinary runs. *)
let wants_matching_count t =
  (not t.config.boolean_subtrees) && not t.eager

let compute_final t =
  if t.eager then
    {
      Result_set.items = Item.sort_dedup (List.rev t.eager_items);
      tuples = None;
      matching_count = None;
    }
  else if t.root_struct.state = Matching.Satisfied then begin
    (* items report the first output x-node; further marks are only
       visible through the tuples *)
    let primary = t.output_ids.(0) in
    let items, residual =
      if t.earliest then begin
        (* the same Section 4.4 collection as deferred mode — result
           sets are identical by construction — but only structures not
           already streamed out mid-document still owe an [on_match] *)
        let residual = ref [] in
        let on_emit (m : Matching.t) =
          if not m.emitted then residual := m :: !residual
        in
        let items =
          Item.sort_dedup
            (Matching.collect_outputs ~on_emit
               ~is_output:(fun v -> v = primary)
               t.root_struct)
        in
        (items, Some !residual)
      end
      else begin
        let on_emit =
          if Tel.enabled () then (fun (m : Matching.t) ->
            if m.sat_byte >= 0 then
              Xaos_obs.Histogram.record hist_emission
                (t.stream_byte - m.sat_byte))
          else fun _ -> ()
        in
        let items =
          Item.sort_dedup
            (Matching.collect_outputs ~on_emit
               ~is_output:(fun v -> v = primary)
               t.root_struct)
        in
        (items, None)
      end
    in
    (match residual with
    | Some residual ->
      (* every early emission has a smaller item id than any structure
         still pending (it would have blocked the flush otherwise), so
         delivering the residue in id order keeps the whole [on_match]
         stream in document order *)
      List.stable_sort
        (fun (a : Matching.t) (b : Matching.t) ->
          Int.compare a.item.Item.id b.item.Item.id)
        residual
      |> List.iter (fun m -> emit_now t m)
    | None -> (
      match t.on_match with
      | Some f -> List.iter f items
      | None -> ()));
    let tuples =
      if Array.length t.output_ids > 1 then
        Some (Matching.enumerate_tuples ~outputs:t.output_ids t.root_struct)
      else None
    in
    let matching_count =
      if wants_matching_count t then
        Some (Matching.count_matchings t.root_struct)
      else None
    in
    { Result_set.items; tuples; matching_count }
  end
  else Result_set.empty

let finish t =
  match t.final with
  | Some r -> r
  | None ->
    if t.frames <> [] then
      invalid_arg "Engine.finish: document has unclosed elements";
    if not t.finished then begin
      t.finished <- true;
      let root_id = t.dag.xtree.root.id in
      (match t.open_stacks.(root_id) with
      | top :: rest when top == t.root_struct ->
        t.open_stacks.(root_id) <- rest;
        (match rest with [] -> stack_became_empty t root_id | _ :: _ -> ())
      | _ -> assert false);
      (* Root cannot have backward-axis children (that would have made the
         x-dag cyclic), so resolution is a bare satisfaction check. *)
      if Matching.satisfied_now t.root_struct then
        t.root_struct.state <- Matching.Satisfied
      else refute_struct t t.root_struct
    end;
    let r = compute_final t in
    t.final <- Some r;
    r

(* Graceful degradation on truncated input: virtually close every open
   element, then finish. Resolution at the virtual end events sees exactly
   the content streamed so far; ancestor/descendant relations among prefix
   elements are final and [contains] text tests are monotone under
   document extension, while the non-monotone [text()='v'] tests refute on
   virtually-closed elements (see [resolve]). Every reported item is
   therefore already certain — the full document could only add results,
   never revoke these. *)
let abort t =
  t.aborting <- true;
  while t.frames <> [] do
    end_element t
  done;
  finish t

let frame_matches t =
  match t.frames with
  | [] -> []
  | frame :: _ ->
    List.map (fun (m : Matching.t) -> (m.xnode, m.item)) frame.f_matches

(* Number of matching structures still reachable from the root structure —
   what the engine actually holds at end of document (counter slots retain
   nothing; eager mode reaches nothing). *)
let retained_structures t =
  if t.eager then 0
  else begin
    let visited = Hashtbl.create 64 in
    let count = ref 0 in
    let rec visit (m : Matching.t) =
      if not (Hashtbl.mem visited m.serial) then begin
        Hashtbl.add visited m.serial ();
        incr count;
        Array.iter
          (function
            | Matching.Pointers store ->
              for i = 0 to store.len - 1 do
                visit store.entries.(i).e_child
              done
            | Matching.Counter _ -> ())
          m.slots
      end
    in
    visit t.root_struct;
    !count - 1 (* the root structure itself is not a match *)
  end

let run_events ?config dag events =
  let t = create ?config dag in
  List.iter (feed t) events;
  finish t

let run_sax ?config dag parser =
  let t = create ?config dag in
  Xaos_xml.Sax.iter (feed t) parser;
  finish t

(* ------------------------------------------------------------------ *)
(* The derived looking-for set (Section 4.1, Table 2)                  *)
(* ------------------------------------------------------------------ *)

(* Allowed levels for one x-node: the intersection over its x-dag parents
   of the level sets induced by their open matches. A finite set comes
   from child/self edges, a half-infinite ray from descendant edges. *)
type allowed =
  | Finite of int list  (* sorted *)
  | Ray of int  (* all levels >= the bound *)

let intersect a b =
  match a, b with
  | Finite xs, Finite ys -> Finite (List.filter (fun x -> List.mem x ys) xs)
  | Finite xs, Ray r | Ray r, Finite xs -> Finite (List.filter (fun x -> x >= r) xs)
  | Ray r1, Ray r2 -> Ray (max r1 r2)

let looking_for t =
  if t.finished then [ (t.dag.xtree.root.id, Exact 0) ]
  else begin
    let n = Array.length t.info in
    let entries = ref [] in
    for v = n - 1 downto 0 do
      if v <> t.dag.xtree.root.id then begin
        let info = t.info.(v) in
        let allowed =
          Array.fold_left
            (fun acc (kind, p) ->
              match acc with
              | None -> None
              | Some acc -> (
                let levels =
                  List.map (fun (m : Matching.t) -> m.item.level)
                    t.open_stacks.(p)
                in
                match levels with
                | [] -> None
                | _ :: _ ->
                  let contribution =
                    match kind with
                    | Xdag.Kchild ->
                      Finite (List.sort Int.compare (List.map succ levels))
                    | Xdag.Kself -> Finite (List.sort Int.compare levels)
                    | Xdag.Kdescendant ->
                      Ray (List.fold_left min max_int levels + 1)
                    | Xdag.Kdescendant_or_self ->
                      Ray (List.fold_left min max_int levels)
                  in
                  Some (intersect acc contribution)))
            (Some (Ray 0)) info.dag_parents
        in
        match allowed with
        | None | Some (Finite []) -> ()
        | Some (Ray _) -> entries := (v, Any) :: !entries
        | Some (Finite levels) ->
          (* The paper suspends exact entries that cannot match the next
             start event (which is necessarily at depth + 1). *)
          if List.mem (t.depth + 1) levels then
            entries := (v, Exact (t.depth + 1)) :: !entries
      end
    done;
    !entries
  end

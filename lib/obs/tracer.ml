(* The ring holds preallocated slots only in the sense of an [event
   array] initialized with a dummy; recording allocates one immutable
   event record (the enabled path is diagnostic, not the production hot
   path — the disabled path allocates nothing). *)

type kind =
  | Created of { parent_serial : int }
  | Propagated of { target_serial : int; optimistic : bool }
  | Undone of { target_serial : int }
  | Refuted
  | Emitted of { item_id : int }
  | Phase of { phase_name : string; enter : bool }

type event = {
  id : int;
  parent : int;
  kind : kind;
  serial : int;
  xnode : int;
  item_id : int;
  tag : string;
  level : int;
  byte : int;
  line : int;
  ts : float;
}

let dummy =
  {
    id = -1;
    parent = -1;
    kind = Refuted;
    serial = -1;
    xnode = -1;
    item_id = -1;
    tag = "";
    level = -1;
    byte = -1;
    line = -1;
    ts = 0.;
  }

let default_capacity = 65536

type state = {
  ring : event array;
  mutable total : int;  (* events recorded since reset; ids are 0..total-1 *)
  mutable t0 : float;
  (* structure serial -> causal id of its Created event. Entries are
     never evicted when the ring wraps: a stale entry only means [find]
     on the id returns None, which is exactly the documented contract. *)
  created_ids : (int, int) Hashtbl.t;
  mutable byte : int;
  mutable line : int;
}

let on = ref false

let state =
  ref
    {
      ring = Array.make default_capacity dummy;
      total = 0;
      t0 = 0.;
      created_ids = Hashtbl.create 256;
      byte = -1;
      line = -1;
    }

let enabled () = !on

let capacity () = Array.length !state.ring

let reset () =
  let s = !state in
  Array.fill s.ring 0 (Array.length s.ring) dummy;
  s.total <- 0;
  s.t0 <- Telemetry.now ();
  Hashtbl.reset s.created_ids;
  s.byte <- -1;
  s.line <- -1

let enable ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Tracer.enable: capacity must be positive";
  state :=
    {
      ring = Array.make capacity dummy;
      total = 0;
      t0 = Telemetry.now ();
      created_ids = Hashtbl.create 256;
      byte = -1;
      line = -1;
    };
  on := true

let disable () = on := false

let set_position ~byte ~line =
  if !on then begin
    let s = !state in
    s.byte <- byte;
    s.line <- line
  end

let record ~kind ~serial ~xnode ~item_id ~tag ~level ~parent =
  let s = !state in
  let id = s.total in
  let e =
    {
      id;
      parent;
      kind;
      serial;
      xnode;
      item_id;
      tag;
      level;
      byte = s.byte;
      line = s.line;
      ts = Telemetry.now () -. s.t0;
    }
  in
  s.ring.(id mod Array.length s.ring) <- e;
  s.total <- id + 1;
  id

let creation_id serial =
  match Hashtbl.find_opt !state.created_ids serial with
  | Some id -> id
  | None -> -1

let created ~serial ~xnode ~item_id ~tag ~level ~parent_serial =
  if !on then begin
    let id =
      record
        ~kind:(Created { parent_serial })
        ~serial ~xnode ~item_id ~tag ~level
        ~parent:(creation_id parent_serial)
    in
    Hashtbl.replace !state.created_ids serial id
  end

let propagated ~optimistic ~child ~target =
  if !on then
    ignore
      (record
         ~kind:(Propagated { target_serial = target; optimistic })
         ~serial:child ~xnode:(-1) ~item_id:(-1) ~tag:"" ~level:(-1)
         ~parent:(creation_id child))

let undone ~child ~target =
  if !on then
    ignore
      (record
         ~kind:(Undone { target_serial = target })
         ~serial:child ~xnode:(-1) ~item_id:(-1) ~tag:"" ~level:(-1)
         ~parent:(creation_id child))

let refuted ~serial =
  if !on then
    ignore
      (record ~kind:Refuted ~serial ~xnode:(-1) ~item_id:(-1) ~tag:""
         ~level:(-1) ~parent:(creation_id serial))

let emitted ~serial ~item_id =
  if !on then
    ignore
      (record
         ~kind:(Emitted { item_id })
         ~serial ~xnode:(-1) ~item_id ~tag:"" ~level:(-1)
         ~parent:(creation_id serial))

let phase_event name enter =
  if !on then
    ignore
      (record
         ~kind:(Phase { phase_name = name; enter })
         ~serial:(-1) ~xnode:(-1) ~item_id:(-1) ~tag:"" ~level:(-1)
         ~parent:(-1))

let phase_begin name = phase_event name true

let phase_end name = phase_event name false

(* ------------------------------------------------------------------ *)
(* Draining                                                            *)
(* ------------------------------------------------------------------ *)

let recorded () = !state.total

let dropped () =
  let s = !state in
  max 0 (s.total - Array.length s.ring)

let oldest_retained () = dropped ()

let find id =
  let s = !state in
  if id < 0 || id >= s.total || id < oldest_retained () then None
  else Some s.ring.(id mod Array.length s.ring)

let events () =
  let s = !state in
  let first = oldest_retained () in
  List.init (s.total - first) (fun i ->
      s.ring.((first + i) mod Array.length s.ring))

let creation ~serial = find (creation_id serial)

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

(* Retained-events fold, oldest first, without materializing the list. *)
let fold_events f init =
  let s = !state in
  let acc = ref init in
  for id = oldest_retained () to s.total - 1 do
    acc := f !acc s.ring.(id mod Array.length s.ring)
  done;
  !acc

let undos_survived ~serial =
  fold_events
    (fun n e ->
      match e.kind with
      | Undone { target_serial } when target_serial = serial -> n + 1
      | _ -> n)
    0

(* The last emission of [item_id]: under disjunct [or] engines the same
   element can be emitted by several structures; the latest event is the
   one the current run produced. *)
let find_emitted item_id =
  fold_events
    (fun acc e ->
      match e.kind with
      | Emitted { item_id = i } when i = item_id -> Some e
      | _ -> acc)
    None

(* The surviving placement of [serial]: the last Propagated event whose
   placement was not subsequently removed by a matching Undone. A result
   structure's placements all survived (an undone one would have refuted
   it), so "the last surviving one" is the link the emission traversed. *)
let surviving_propagation serial =
  fold_events
    (fun acc e ->
      if e.serial <> serial then acc
      else
        match e.kind with
        | Propagated { target_serial; _ } -> Some (e, target_serial)
        | Undone { target_serial } -> (
          match acc with
          | Some (_, t) when t = target_serial -> None
          | _ -> acc)
        | _ -> acc)
    None

let provenance ~item_id =
  match find_emitted item_id with
  | None -> []
  | Some emission ->
    (* Walk placement links rootward. The x-tree parent chain is finite
       and placements only go child-structure -> parent-structure, but a
       dropped creation plus serial reuse across engines could in
       principle loop — the visited set makes termination unconditional. *)
    let visited = Hashtbl.create 16 in
    let rec climb serial acc =
      if Hashtbl.mem visited serial then List.rev acc
      else begin
        Hashtbl.add visited serial ();
        let acc =
          match creation ~serial with Some c -> c :: acc | None -> acc
        in
        match surviving_propagation serial with
        | Some (p, target) when target <> 0 -> climb target (p :: acc)
        | Some (p, _) -> List.rev (p :: acc)  (* placed into the root *)
        | None -> List.rev acc
      end
    in
    emission :: climb emission.serial []

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

let us ts = ts *. 1e6

let base_args e extra =
  let args =
    [ ("cause", Json.Int e.id); ("parent_cause", Json.Int e.parent) ]
    @ extra
    @ (if e.byte >= 0 then [ ("byte", Json.Int e.byte) ] else [])
    @ if e.line >= 0 then [ ("line", Json.Int e.line) ] else []
  in
  ("args", Json.Obj args)

let common ~name ~cat ~ph e extra =
  [
    ("name", Json.String name);
    ("cat", Json.String cat);
    ("ph", Json.String ph);
    ("ts", Json.Float (us e.ts));
    ("pid", Json.Int 1);
    ("tid", Json.Int 1);
  ]
  @ extra
  @ [ base_args e [] ]

let structure_name e =
  if e.tag = "" then Printf.sprintf "M#%d" e.serial
  else Printf.sprintf "M#%d %s" e.serial e.tag

let async ~name ~ph e extra_args =
  Json.Obj
    [
      ("name", Json.String name);
      ("cat", Json.String "structure");
      ("ph", Json.String ph);
      ("ts", Json.Float (us e.ts));
      ("pid", Json.Int 1);
      ("tid", Json.Int 1);
      ("id", Json.Int e.serial);
      base_args e extra_args;
    ]

let event_to_chrome e =
  match e.kind with
  | Phase { phase_name; enter } ->
    Json.Obj
      (common ~name:phase_name ~cat:"phase" ~ph:(if enter then "B" else "E")
         e [])
  | Created { parent_serial } ->
    async ~name:(structure_name e) ~ph:"b" e
      [
        ("serial", Json.Int e.serial);
        ("xnode", Json.Int e.xnode);
        ("item", Json.Int e.item_id);
        ("tag", Json.String e.tag);
        ("level", Json.Int e.level);
        ("parent_serial", Json.Int parent_serial);
      ]
  | Propagated { target_serial; optimistic } ->
    async
      ~name:(if optimistic then "optimistic-propagate" else "propagate")
      ~ph:"n" e
      [ ("target", Json.Int target_serial) ]
  | Undone { target_serial } ->
    async ~name:"undo" ~ph:"n" e [ ("target", Json.Int target_serial) ]
  | Refuted -> async ~name:"refute" ~ph:"e" e []
  | Emitted { item_id } ->
    Json.Obj
      [
        ("name", Json.String "emit");
        ("cat", Json.String "result");
        ("ph", Json.String "i");
        ("ts", Json.Float (us e.ts));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("s", Json.String "p");
        base_args e [ ("item", Json.Int item_id) ];
      ]

let to_chrome () =
  let evs = events () in
  let span_end =
    match evs with
    | [] -> 0.
    | _ -> List.fold_left (fun acc e -> Float.max acc e.ts) 0. evs
  in
  (* one X (complete) event covering the whole recorded window, so the
     trace always has a top-level duration row *)
  let whole =
    Chrome.complete ~name:"xaos trace" ~cat:"trace" ~ts:0. ~dur:span_end
      ~pid:1 ~tid:1
      ~args:
        [
          ("recorded", Json.Int (recorded ()));
          ("dropped", Json.Int (dropped ()));
        ]
      ()
  in
  Chrome.document (whole :: List.map event_to_chrome evs)

let write_chrome path = Chrome.write path (to_chrome ())

(* Sampled per-document flight recorder.

   One recording covers one document's trip through the service
   pipeline: ingress wait, parse, dispatch, per-subscription match,
   emission, writer. Spans are collected unconditionally once a
   recording has been started (starting is the sampled decision), then
   kept or dropped at [finish]: every [sample_every]-th document is
   kept, and every slow or faulted one regardless of sampling.

   Kept recordings are exported through the Chrome trace-event writer
   the engine Tracer also uses, as complete ("X") events, so a flight
   file loads in Perfetto next to an engine trace. Track 0 carries the
   document root plus the sequential pipeline stages; track 1 carries
   the per-subscription match spans. Pipeline-stage spans use measured
   stage durations laid against the document's wall clock: parse and
   dispatch are the summed instrumented chunks placed back to back from
   publish start (each is a disjoint subset of the wall interval, so
   they never collide with the later real intervals), per-subscription
   spans are real per-run durations laid sequentially inside the match
   window. The layout is attribution, not an exact interleaving — the
   evaluator alternates between stages at parse-chunk granularity. *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_track : int;
  sp_start_s : float;  (* absolute, Telemetry.now clock *)
  sp_dur_s : float;
  sp_args : (string * Json.t) list;
}

type t = {
  fl_doc_id : string;
  fl_started : float;
  fl_mu : Mutex.t;
  mutable fl_tick : int;
  mutable fl_spans : span list;  (* reverse order of addition *)
  mutable fl_slow : bool;
  mutable fl_faulted : bool;
  mutable fl_finished : bool;
}

(* ------------------------------------------------------------------ *)
(* Module configuration                                                *)
(* ------------------------------------------------------------------ *)

let cfg_mu = Mutex.create ()
let cfg_sample_every = ref 0 (* <= 0: recorder off *)
let cfg_dir : string option ref = ref None
let cfg_max_files = ref 64
let n_written = ref 0
let last_kept : t option ref = ref None

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let configure ?sample_every ?dir ?max_files () =
  locked cfg_mu (fun () ->
      (match sample_every with
      | Some n -> cfg_sample_every := n
      | None -> ());
      (match dir with Some d -> cfg_dir := Some d | None -> ());
      match max_files with Some n -> cfg_max_files := n | None -> ())

let disable () =
  locked cfg_mu (fun () ->
      cfg_sample_every := 0;
      cfg_dir := None)

let active () = !cfg_sample_every > 0

let reset () =
  locked cfg_mu (fun () ->
      n_written := 0;
      last_kept := None)

let written () = !n_written
let last () = !last_kept

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let start ~doc_id =
  {
    fl_doc_id = doc_id;
    fl_started = Telemetry.now ();
    fl_mu = Mutex.create ();
    fl_tick = 0;
    fl_spans = [];
    fl_slow = false;
    fl_faulted = false;
    fl_finished = false;
  }

let doc_id fl = fl.fl_doc_id
let set_tick fl tick = fl.fl_tick <- tick
let mark_slow fl = fl.fl_slow <- true
let mark_faulted fl = fl.fl_faulted <- true

let span fl ?(cat = "pipeline") ?(track = 0) ?(args = []) ~name ~start ~stop
    () =
  let dur = if stop > start then stop -. start else 0. in
  locked fl.fl_mu (fun () ->
      fl.fl_spans <-
        {
          sp_name = name;
          sp_cat = cat;
          sp_track = track;
          sp_start_s = start;
          sp_dur_s = dur;
          sp_args = args;
        }
        :: fl.fl_spans)

let span_names fl =
  locked fl.fl_mu (fun () ->
      List.rev_map (fun s -> s.sp_name) fl.fl_spans)

let keep fl =
  fl.fl_slow || fl.fl_faulted
  ||
  let every = !cfg_sample_every in
  every > 0 && fl.fl_tick mod every = 0

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let to_chrome fl =
  let spans = locked fl.fl_mu (fun () -> List.rev fl.fl_spans) in
  (* Shift everything so the earliest span starts at ts 0 — ingress
     starts before publish, and Perfetto prefers non-negative stamps. *)
  let t0 =
    List.fold_left
      (fun acc s -> min acc s.sp_start_s)
      fl.fl_started spans
  in
  let t_end =
    List.fold_left
      (fun acc s -> max acc (s.sp_start_s +. s.sp_dur_s))
      fl.fl_started spans
  in
  let event s =
    Chrome.complete ~name:s.sp_name ~cat:s.sp_cat ~ts:(s.sp_start_s -. t0)
      ~dur:s.sp_dur_s ~pid:fl.fl_tick ~tid:s.sp_track ~args:s.sp_args ()
  in
  let root =
    Chrome.complete ~name:("doc " ^ fl.fl_doc_id) ~cat:"doc" ~ts:0.
      ~dur:(t_end -. t0) ~pid:fl.fl_tick ~tid:0
      ~args:
        [
          ("doc_id", Json.String fl.fl_doc_id);
          ("tick", Json.Int fl.fl_tick);
          ("slow", Json.Bool fl.fl_slow);
          ("faulted", Json.Bool fl.fl_faulted);
        ]
      ()
  in
  Chrome.document (root :: List.map event spans)

let safe_name id =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    (if String.length id > 40 then String.sub id 0 40 else id)

let write_file fl =
  match !cfg_dir with
  | None -> None
  | Some dir ->
    let may_write =
      locked cfg_mu (fun () ->
          if !n_written < !cfg_max_files then begin
            incr n_written;
            true
          end
          else false)
    in
    if not may_write then None
    else begin
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path =
        Filename.concat dir
          (Printf.sprintf "flight-%06d-%s.json" fl.fl_tick
             (safe_name fl.fl_doc_id))
      in
      Chrome.write path (to_chrome fl);
      Some path
    end

let finish fl =
  let first =
    locked fl.fl_mu (fun () ->
        if fl.fl_finished then false
        else begin
          fl.fl_finished <- true;
          true
        end)
  in
  if not first then None
  else if not (keep fl) then None
  else begin
    last_kept := Some fl;
    try write_file fl with Sys_error _ | Unix.Unix_error _ -> None
  end

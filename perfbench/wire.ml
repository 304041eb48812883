(* The wire workloads: one load-generator process (this one) drives a
   separately spawned `xaos serve` over its Unix socket.

   Load shape: two connections, a publisher and a subscriber that owns
   every subscription, and two threads, the main thread as sender and one
   select-based reader. Each run has a closed-loop phase (a fixed window
   of documents in flight, below the server's high watermark, so nothing
   is shed) for throughput, and an open-loop phase (a fixed send schedule
   that does not slow down when the server does) for latency, timed from
   each document's scheduled send time. *)

module Json = Xaos_obs.Json
module Protocol = Xaos_service.Protocol

exception Fatal of string

let fatal fmt = Printf.ksprintf (fun s -> raise (Fatal s)) fmt

(* {1 Server process} *)

type server = { pid : int; mutable reaped : bool }

let spawn ~exe ~socket ~log =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe [| exe; "serve"; "--socket"; socket |] Unix.stdin
      out out
  in
  Unix.close out;
  { pid; reaped = false }

let exited s =
  s.reaped
  ||
  match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | 0, _ -> false
  | _ -> s.reaped <- true; true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> s.reaped <- true; true

(* wait up to [timeout] seconds for the process to end, then kill it *)
let reap ?(timeout = 5.) s =
  let deadline = Mono.now () +. timeout in
  while (not (exited s)) && Mono.now () < deadline do
    Unix.sleepf 0.01
  done;
  if not (exited s) then begin
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
    s.reaped <- true
  end

let connect ~server ~socket =
  let deadline = Mono.now () +. 20. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if exited server then fatal "server exited during start-up";
      if Mono.now () > deadline then fatal "server did not listen on %s" socket;
      Unix.sleepf 0.002;
      go ()
  in
  go ()

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

(* {1 Line framing} *)

type conn = {
  fd : Unix.file_descr;
  pending : Buffer.t;  (** an incomplete trailing line *)
  chunk : Bytes.t;
  mutable bytes_in : int;
  mutable bytes_out : int;
}

let conn fd =
  { fd; pending = Buffer.create 4096; chunk = Bytes.create 65536;
    bytes_in = 0; bytes_out = 0 }

let send c line =
  c.bytes_out <- c.bytes_out + String.length line;
  write_all c.fd line

(* read what is available and hand every complete line to [f];
   [false] on end of stream *)
let read_lines c f =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> false
  | n ->
    c.bytes_in <- c.bytes_in + n;
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get c.chunk i = '\n' then begin
        Buffer.add_subbytes c.pending c.chunk !start (i - !start);
        let line = Buffer.contents c.pending in
        Buffer.clear c.pending;
        start := i + 1;
        f line
      end
    done;
    Buffer.add_subbytes c.pending c.chunk !start (n - !start);
    true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let request_line r = Protocol.to_line (Protocol.request_to_json r)

(* read one connection synchronously until [stop] says so *)
let read_until c ~timeout stop =
  let deadline = Mono.now () +. timeout in
  let finished = ref false in
  while not !finished do
    if Mono.now () > deadline then fatal "timed out waiting for the server";
    match Unix.select [ c.fd ] [] [] 0.5 with
    | [], _, _ -> ()
    | _ ->
      if not (read_lines c (fun l -> if stop l then finished := true)) then
        fatal "server closed the connection"
  done

let str field j = Option.bind (Json.member field j) Json.to_str
let int_field field j = Option.bind (Json.member field j) Json.to_int

let is_ok j = Json.member "ok" j = Some (Json.Bool true)

(* {1 Set-up: spawn, connect, subscribe every stable subscription} *)

type session = {
  server : server;
  pub : conn;
  sub : conn;
}

let start_session ~exe ~socket ~log (w : Gen.wire) =
  let server = spawn ~exe ~socket ~log in
  let pub = conn (connect ~server ~socket) in
  let sub = conn (connect ~server ~socket) in
  let batch = Buffer.create (64 * Array.length w.subs) in
  Array.iter
    (fun (s : Gen.sub) ->
      Buffer.add_string batch
        (request_line
           (Protocol.Subscribe
              { name = s.name; query = s.query; earliest = s.earliest })))
    w.subs;
  send sub (Buffer.contents batch);
  let acked = ref 0 in
  read_until sub ~timeout:60. (fun line ->
      match Json.parse line with
      | Ok j when is_ok j && str "op" j = Some "subscribe" ->
        incr acked;
        !acked = Array.length w.subs
      | _ -> fatal "subscribe refused: %s" line);
  { server; pub; sub }

let stop_session s =
  (try send s.pub (request_line Protocol.Shutdown)
   with Unix.Unix_error _ -> ());
  reap s.server;
  List.iter
    (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    [ s.pub; s.sub ]

(* {1 The measured run} *)

type doc_state = {
  seq : int;
  idx : int;  (** which generated document *)
  due : float;  (** scheduled send time *)
  timed : bool;  (** open-loop phase: latency counts *)
  mutable processed : bool;
  mutable matches_left : int;  (** expected stable match events not seen *)
  mutable last : float;  (** arrival of the latest reply *)
  mutable bad : bool;
  items : (string, int) Hashtbl.t;  (** stable earliest sub -> item events *)
}

type t = {
  w : Gen.wire;
  s : session;
  stable : (string, bool) Hashtbl.t;  (** stable name -> earliest *)
  sample_match_events : bool;
      (** no earliest subscriptions: per-result latency is taken from the
          match events instead of item events *)
  mu : Mutex.t;
  cond : Condition.t;
  docs : (int, doc_state) Hashtbl.t;  (** in flight *)
  ctrl : float Queue.t;  (** send times of control requests awaiting a reply *)
  mutable stop_reader : bool;
  mutable reader_error : string option;
  mutable last_stats : Json.t option;
  (* results *)
  latency : Mono.samples;
  item_latency : Mono.samples;
  control_latency : Mono.samples;
  mutable completed : int;
  mutable failed_docs : int;
  mutable failed_ctrl : int;
  mutable last_completion : float;
  mutable mismatches : string list;  (** first few oracle mismatches *)
}

let note_mismatch t msg =
  if List.length t.mismatches < 5 then t.mismatches <- msg :: t.mismatches

let complete t d =
  Hashtbl.remove t.docs d.seq;
  if d.bad then t.failed_docs <- t.failed_docs + 1
  else begin
    t.completed <- t.completed + 1;
    t.last_completion <- d.last;
    if d.timed then Mono.add t.latency ((d.last -. d.due) *. 1e3)
  end;
  Condition.broadcast t.cond

let maybe_complete t d =
  if d.processed && d.matches_left = 0 then begin
    (* items precede their subscription's match event on the subscriber
       connection, so every item has arrived by now *)
    Hashtbl.iter
      (fun name count ->
        if Hashtbl.find t.stable name then
          let got = Option.value ~default:0 (Hashtbl.find_opt d.items name) in
          if got <> count then begin
            d.bad <- true;
            note_mismatch t
              (Printf.sprintf "doc %d: %s streamed %d items, matched %d" d.seq
                 name got count)
          end)
      t.w.expected.(d.idx);
    complete t d
  end

let doc_of t j =
  match str "id" j with
  | Some id when String.length id > 1 && id.[0] = 'd' -> (
    match int_of_string_opt (String.sub id 1 (String.length id - 1)) with
    | Some seq -> Hashtbl.find_opt t.docs seq
    | None -> None)
  | _ -> None

let on_processed t now j =
  match doc_of t j with
  | None -> ()
  | Some d ->
    let expected = t.w.expected.(d.idx) in
    let got =
      Option.value ~default:[]
        (Option.bind (Json.member "matches" j) Json.to_obj)
    in
    let stable_got = List.filter (fun (n, _) -> Hashtbl.mem t.stable n) got in
    if
      List.length stable_got <> Hashtbl.length expected
      || List.exists
           (fun (n, c) -> Json.to_int c <> Hashtbl.find_opt expected n)
           stable_got
    then begin
      d.bad <- true;
      note_mismatch t (Printf.sprintf "doc %d: processed matches differ" d.seq)
    end;
    d.processed <- true;
    d.last <- Float.max d.last now;
    maybe_complete t d

let on_match t now j =
  match (doc_of t j, str "name" j) with
  | Some d, Some name when Hashtbl.mem t.stable name ->
    (match Hashtbl.find_opt t.w.expected.(d.idx) name with
    | Some c when int_field "count" j = Some c ->
      d.matches_left <- d.matches_left - 1
    | _ ->
      d.bad <- true;
      note_mismatch t (Printf.sprintf "doc %d: match %s unexpected" d.seq name));
    if t.sample_match_events && d.timed then
      Mono.add t.item_latency ((now -. d.due) *. 1e3);
    d.last <- Float.max d.last now;
    maybe_complete t d
  | _ -> ()  (* a churn subscription's match: not in the oracle *)

let on_item t now j =
  match doc_of t j with
  | None -> ()
  | Some d ->
    if d.timed then Mono.add t.item_latency ((now -. d.due) *. 1e3);
    (match str "name" j with
    | Some name when Hashtbl.mem t.stable name ->
      Hashtbl.replace d.items name
        (1 + Option.value ~default:0 (Hashtbl.find_opt d.items name))
    | _ -> ())

let on_control t now j =
  match Queue.take_opt t.ctrl with
  | None -> t.failed_ctrl <- t.failed_ctrl + 1
  | Some sent ->
    Mono.add t.control_latency ((now -. sent) *. 1e3);
    if not (is_ok j) then t.failed_ctrl <- t.failed_ctrl + 1;
    if str "op" j = Some "stats" then t.last_stats <- Json.member "stats" j

let handle t line =
  let now = Mono.now () in
  match Json.parse line with
  | Error _ -> t.failed_ctrl <- t.failed_ctrl + 1
  | Ok j -> (
    Mutex.lock t.mu;
    (match (str "event" j, str "op" j) with
    | Some "processed", _ -> on_processed t now j
    | Some "match", _ -> on_match t now j
    | Some "item", _ -> on_item t now j
    | Some _, _ -> ()
    | None, Some "publish" ->
      if not (is_ok j) then (
        (* shed or displaced by admission control *)
        match doc_of t j with
        | Some d ->
          d.bad <- true;
          note_mismatch t (Printf.sprintf "doc %d: %s" d.seq line);
          complete t d
        | None -> ())
    | None, Some ("subscribe" | "unsubscribe" | "stats") -> on_control t now j
    | None, _ -> t.failed_ctrl <- t.failed_ctrl + 1);
    Mutex.unlock t.mu)

let reader t () =
  let fds = [ t.s.pub.fd; t.s.sub.fd ] in
  try
    while not t.stop_reader do
      match Unix.select fds [] [] 0.1 with
      | ready, _, _ ->
        List.iter
          (fun fd ->
            let c = if fd = t.s.pub.fd then t.s.pub else t.s.sub in
            if not (read_lines c (handle t)) then
              raise (Fatal "server closed a connection"))
          ready;
        Mutex.lock t.mu;
        Condition.broadcast t.cond;
        Mutex.unlock t.mu
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  with e ->
    Mutex.lock t.mu;
    t.reader_error <- Some (Printexc.to_string e);
    t.stop_reader <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.mu

(* publish lines: the escaped document is encoded once, only the id varies *)
let publish_lines (w : Gen.wire) =
  Array.map
    (fun doc ->
      let enc = Json.to_string ~indent:false (Json.String doc) in
      fun seq ->
        String.concat ""
          [ {|{"op":"publish","id":"d|}; string_of_int seq;
            {|","priority":0,"doc":|}; enc; "}\n" ])
    w.docs

let create (w : Gen.wire) s =
  let stable = Hashtbl.create (Array.length w.subs) in
  Array.iter (fun (sb : Gen.sub) -> Hashtbl.replace stable sb.name sb.earliest) w.subs;
  { w; s; stable;
    sample_match_events =
      not (Array.exists (fun (sb : Gen.sub) -> sb.earliest) w.subs);
    mu = Mutex.create (); cond = Condition.create ();
    docs = Hashtbl.create 64; ctrl = Queue.create (); stop_reader = false;
    reader_error = None; last_stats = None; latency = Mono.samples ();
    item_latency = Mono.samples (); control_latency = Mono.samples ();
    completed = 0; failed_docs = 0; failed_ctrl = 0; last_completion = 0.;
    mismatches = [] }

let check_reader t =
  match t.reader_error with Some e -> fatal "reader: %s" e | None -> ()

(* register a document as in flight, then send it *)
let send_doc t lines ~seq ~due ~timed =
  let idx = seq mod Array.length t.w.docs in
  let d =
    { seq; idx; due; timed; processed = false;
      matches_left = Hashtbl.length t.w.expected.(idx); last = 0.;
      bad = false; items = Hashtbl.create 8 }
  in
  Mutex.lock t.mu;
  Hashtbl.replace t.docs seq d;
  Mutex.unlock t.mu;
  send t.s.pub (lines.(idx) seq)

let in_flight t =
  Mutex.lock t.mu;
  let n = Hashtbl.length t.docs in
  Mutex.unlock t.mu;
  n

(* wait until every document in flight completed, or fail the rest *)
let drain t ~timeout =
  let deadline = Mono.now () +. timeout in
  Mutex.lock t.mu;
  while Hashtbl.length t.docs > 0 && Mono.now () < deadline
        && t.reader_error = None do
    Condition.wait t.cond t.mu
  done;
  let left = Hashtbl.fold (fun _ d acc -> d :: acc) t.docs [] in
  List.iter
    (fun d ->
      d.bad <- true;
      note_mismatch t
        (Printf.sprintf "doc %d: timed out (processed %b, %d match events missing)"
           d.seq d.processed d.matches_left);
      complete t d)
    left;
  Mutex.unlock t.mu;
  check_reader t

type closed = { c_docs : int; c_bytes : int; c_seconds : float }

let closed_loop t lines ~window ~seconds ~first_seq =
  let start = Mono.now () in
  let stop_at = start +. seconds in
  let completed0 = t.completed in
  let seq = ref first_seq in
  let bytes = ref 0 in
  while Mono.now () < stop_at do
    let stall = Mono.now () +. 10. in
    Mutex.lock t.mu;
    while Hashtbl.length t.docs >= window && t.reader_error = None
          && Mono.now () < stall do
      Condition.wait t.cond t.mu
    done;
    let full = Hashtbl.length t.docs >= window in
    Mutex.unlock t.mu;
    if full then drain t ~timeout:0.;
    check_reader t;
    let idx = !seq mod Array.length t.w.docs in
    bytes := !bytes + String.length t.w.docs.(idx);
    send_doc t lines ~seq:!seq ~due:(Mono.now ()) ~timed:false;
    incr seq
  done;
  drain t ~timeout:10.;
  let c_docs = t.completed - completed0 in
  ({ c_docs; c_bytes = !bytes; c_seconds = t.last_completion -. start }, !seq)

type opened = {
  o_docs : int;
  backlog_start : float;  (** mean documents in flight, first quarter *)
  backlog_end : float;  (** and last quarter *)
  ctrl_sent : int;
}

(* Documents at [rate]/s on a fixed schedule for [seconds]; control
   requests on their own fixed schedule: every [ctrl_period] seconds a
   stats read, and, when the workload has a churn pool, a subscribe or
   unsubscribe of a churn name. How late each send was, in ms, goes to
   [lag]. *)
let open_loop t lines ~lag ~rate ~ctrl_period ~seconds ~first_seq =
  let start = Mono.now () +. 0.05 in
  let n = int_of_float (rate *. seconds) in
  let backlog = Array.make n 0 in
  let ctrl_sent = ref 0 in
  let churn = t.w.churn in
  let next_ctrl = ref (start +. (ctrl_period /. 2.)) in
  let ctrl_k = ref 0 in
  let live_churn = Queue.create () in
  let send_control () =
    let k = !ctrl_k in
    incr ctrl_k;
    let req =
      if Array.length churn = 0 || k mod 3 = 2 then Protocol.Stats
      else if k mod 3 = 0 || Queue.is_empty live_churn then begin
        let name = Printf.sprintf "churn%d" k in
        Queue.push name live_churn;
        Protocol.Subscribe
          { name; query = churn.(k mod Array.length churn); earliest = false }
      end
      else Protocol.Unsubscribe { name = Queue.pop live_churn }
    in
    Mutex.lock t.mu;
    Queue.push (Mono.now ()) t.ctrl;
    Mutex.unlock t.mu;
    send t.s.sub (request_line req);
    incr ctrl_sent
  in
  for i = 0 to n - 1 do
    let due = start +. (float_of_int i /. rate) in
    while !next_ctrl < due do
      Mono.sleep_until !next_ctrl;
      send_control ();
      next_ctrl := !next_ctrl +. ctrl_period
    done;
    Mono.sleep_until due;
    check_reader t;
    backlog.(i) <- in_flight t;
    Mono.add lag ((Mono.now () -. due) *. 1e3);
    send_doc t lines ~seq:(first_seq + i) ~due ~timed:true
  done;
  (* leave no churn subscription behind *)
  Queue.iter
    (fun name ->
      Mutex.lock t.mu;
      Queue.push (Mono.now ()) t.ctrl;
      Mutex.unlock t.mu;
      send t.s.sub (request_line (Protocol.Unsubscribe { name }));
      incr ctrl_sent)
    live_churn;
  drain t ~timeout:10.;
  let q = max 1 (n / 4) in
  let mean a b =
    let s = ref 0 in
    for i = a to b - 1 do
      s := !s + backlog.(i)
    done;
    float_of_int !s /. float_of_int (max 1 (b - a))
  in
  ( { o_docs = n; backlog_start = mean 0 q; backlog_end = mean (n - q) n;
      ctrl_sent = !ctrl_sent },
    first_seq + n )

(* one synchronous stats read through the reader thread *)
let scrape_stats t =
  Mutex.lock t.mu;
  t.last_stats <- None;
  Queue.push (Mono.now ()) t.ctrl;
  Mutex.unlock t.mu;
  send t.s.sub (request_line Protocol.Stats);
  let deadline = Mono.now () +. 10. in
  Mutex.lock t.mu;
  while t.last_stats = None && Mono.now () < deadline && t.reader_error = None do
    Condition.wait t.cond t.mu
  done;
  let st = t.last_stats in
  Mutex.unlock t.mu;
  let get k =
    match Option.bind st (Json.member k) with
    | Some v -> Option.value ~default:Float.nan (Json.to_float v)
    | None -> Float.nan
  in
  get

let start_reader t = Thread.create (reader t) ()

let stop_reader t th =
  Mutex.lock t.mu;
  t.stop_reader <- true;
  Mutex.unlock t.mu;
  Thread.join th

(* Fixed-bucket log-scale histograms for live service latencies.

   Design constraints, in order:

   - the record path must cost nothing when telemetry is disabled — one
     load, one branch, no allocation. Values are therefore plain [int]s
     (bytes, microseconds): no float boxing anywhere near the hot path;
   - instances must be mergeable, so a worker thread can record into a
     private scratch histogram lock-free and fold it into the shared
     registered one under whatever lock it already holds;
   - quantiles must be readable live, mid-run, without draining: the
     buckets are kept non-cumulative and cumulated on read.

   The bucket layout extends {!Telemetry}'s 2^i scheme to 2^30 so byte
   distances across large documents land in real buckets rather than
   piling into +inf. An observed value [v] falls in the bucket whose
   upper bound is the smallest power of two >= v, so a quantile estimate
   (the bucket's upper bound) overshoots the true order statistic by
   less than 2x — the error bound the tests pin down. *)

let bucket_count = 32 (* upper bounds 2^0 .. 2^30, then +inf *)

let bound_value i = if i >= bucket_count - 1 then max_int else 1 lsl i

type t = {
  name : string;
  help : string;
  unit_ : string;
  scale : float; (* read-path multiplier: recorded int -> reported unit *)
  mutable count : int;
  mutable sum : int;
  mutable max_seen : int;
  buckets : int array; (* non-cumulative *)
}

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 16

let order : t list ref = ref []

let make ?(help = "") ?(unit_ = "") ?(scale = 1.0) name =
  {
    name;
    help;
    unit_;
    scale;
    count = 0;
    sum = 0;
    max_seen = 0;
    buckets = Array.make bucket_count 0;
  }

let create ?help ?unit_ ?scale name =
  match Hashtbl.find_opt registry name with
  | Some h -> h
  | None ->
    let h = make ?help ?unit_ ?scale name in
    Hashtbl.add registry name h;
    order := h :: !order;
    h

let registered () = List.rev !order

let find name = Hashtbl.find_opt registry name

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

(* Index of the smallest upper bound >= v: one bit-length computation,
   no loop over the bounds. [v <= 1] lands in bucket 0 (bound 2^0). *)
let bucket_index v =
  if v <= 1 then 0
  else begin
    (* bits needed for v-1: ceil(log2 v) *)
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    let i = bits (v - 1) 0 in
    if i >= bucket_count - 1 then bucket_count - 1 else i
  end

let record h v =
  if Telemetry.enabled () then begin
    let v = if v < 0 then 0 else v in
    h.count <- h.count + 1;
    h.sum <- h.sum + v;
    if v > h.max_seen then h.max_seen <- v;
    let i = bucket_index v in
    Array.unsafe_set h.buckets i (Array.unsafe_get h.buckets i + 1)
  end

let record_seconds h s =
  (* microsecond resolution; the float->int conversion only runs when the
     sink is on, so the disabled path never boxes *)
  if Telemetry.enabled () then record h (int_of_float (s *. 1e6))

let merge ~into src =
  into.count <- into.count + src.count;
  into.sum <- into.sum + src.sum;
  if src.max_seen > into.max_seen then into.max_seen <- src.max_seen;
  for i = 0 to bucket_count - 1 do
    into.buckets.(i) <- into.buckets.(i) + src.buckets.(i)
  done

let reset h =
  h.count <- 0;
  h.sum <- 0;
  h.max_seen <- 0;
  Array.fill h.buckets 0 bucket_count 0

let reset_all () = List.iter reset !order

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let count h = h.count

let name h = h.name

let help h = h.help

let unit_of h = h.unit_

(* Smallest bucket upper bound whose cumulative count reaches
   [ceil (q * count)] — within 2x of the true order statistic. The +inf
   bucket reports the exact maximum instead of infinity. *)
let quantile h q =
  if h.count = 0 then 0.
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int h.count)) in
      if r < 1 then 1 else if r > h.count then h.count else r
    in
    let rec go i cum =
      if i >= bucket_count then h.scale *. float_of_int h.max_seen
      else begin
        let cum = cum + h.buckets.(i) in
        if cum >= rank then
          if i = bucket_count - 1 then h.scale *. float_of_int h.max_seen
          else h.scale *. float_of_int (bound_value i)
        else go (i + 1) cum
      end
    in
    go 0 0
  end

let p50 h = quantile h 0.50

let p90 h = quantile h 0.90

let p99 h = quantile h 0.99

let max_value h = h.scale *. float_of_int h.max_seen

let sum h = h.scale *. float_of_int h.sum

let mean h =
  if h.count = 0 then 0. else h.scale *. float_of_int h.sum /. float_of_int h.count

type summary = {
  s_name : string;
  s_unit : string;
  s_count : int;
  s_sum : float;
  s_max : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_buckets : (float * int) list;
      (* (upper bound in reported units, cumulative count); last bound is
         [infinity] *)
}

let summary h =
  let cumulative = ref 0 in
  let buckets =
    List.init bucket_count (fun i ->
        cumulative := !cumulative + h.buckets.(i);
        let bound =
          if i = bucket_count - 1 then infinity
          else h.scale *. float_of_int (bound_value i)
        in
        (bound, !cumulative))
  in
  {
    s_name = h.name;
    s_unit = h.unit_;
    s_count = h.count;
    s_sum = sum h;
    s_max = max_value h;
    s_p50 = p50 h;
    s_p90 = p90 h;
    s_p99 = p99 h;
    s_buckets = buckets;
  }

let summaries () =
  List.filter_map
    (fun h -> if h.count > 0 then Some (summary h) else None)
    (registered ())

(* Key quantiles as flat report stats. Histogram names follow the
   [subsystem/metric] stat convention, so the derived entries do too —
   and the [_s]/[_bytes] unit suffix is what the diff gate's
   worse-when-larger heuristic keys on. *)
let stats () =
  List.concat_map
    (fun h ->
      if h.count = 0 then []
      else begin
        let suffix = if h.unit_ = "" then "" else "_" ^ h.unit_ in
        [
          (h.name ^ "_p50" ^ suffix, p50 h);
          (h.name ^ "_p99" ^ suffix, p99 h);
          (h.name ^ "_count", float_of_int h.count);
        ]
      end)
    (registered ())

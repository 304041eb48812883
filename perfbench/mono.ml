(* Monotonic time and the summary statistics the workloads report.

   Every timer of the benchmark reads CLOCK_MONOTONIC through bechamel's
   stub: wall-clock time steps when NTP adjusts it, which would show up
   as negative or inflated latencies. *)

let now_ns () = Monotonic_clock.now ()

(* seconds since an arbitrary origin *)
let now () = Int64.to_float (now_ns ()) *. 1e-9

let sleep_until t =
  let d = t -. now () in
  if d > 0. then Unix.sleepf d

(* A growable sample of floats. *)
type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 256 0.; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0. in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n

let sorted s =
  let b = Array.sub s.a 0 s.n in
  Array.sort Float.compare b;
  b

(* Nearest-rank percentile, [p] in [0, 100]; nan on an empty sample. *)
let percentile s p =
  if s.n = 0 then Float.nan
  else
    let b = sorted s in
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int s.n)) in
    b.(max 0 (min (s.n - 1) (rank - 1)))

let median s = percentile s 50.

(* the samples added between two [count]s *)
let slice s lo hi = { a = Array.sub s.a lo (hi - lo); n = hi - lo }

(* Percentile [p] of each segment delimited by the sample counts [marks]
   (ascending, starting at 0), then the median of those: a tail estimate
   that one disturbed stretch of the run cannot move on its own. *)
let segment_percentile s marks p =
  let per = samples () in
  let rec go = function
    | lo :: (hi :: _ as rest) ->
      if hi > lo then add per (percentile (slice s lo hi) p);
      go rest
    | _ -> ()
  in
  go marks;
  median per

(* Peak resident set of a process ([VmHWM] in /proc), in MB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> Float.nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else scan ()
    in
    let v = scan () in
    close_in_noerr ic;
    v

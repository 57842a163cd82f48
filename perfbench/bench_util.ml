(* Clock, statistics, result reporting, output checks and the span
   recorder shared by the end-to-end and the traced runs. *)

(* CLOCK_MONOTONIC in nanoseconds: the wall clock can step, and a timed
   section must never read a negative or inflated interval. *)
let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* [timed f] is [(f (), host seconds f took)]. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

(* An interval of host time, kept as its two clock readings so that it
   can be scaled once the host's speed around it is known. *)
type interval = { start : int64; stop : int64 }

let interval_since start = { start; stop = now_ns () }

let raw_s iv = Int64.to_float (Int64.sub iv.stop iv.start) /. 1e9

(* --- statistics ------------------------------------------------------- *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "median: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, and how many samples lie strictly above
   its rank. A percentile is only reported when at least
   [min_beyond] samples lie beyond it: a p90 read off 20 samples is
   the second-largest value, and says more about the host than about
   the program. *)
let min_beyond = 10

let percentile p xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile: no samples";
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
  (a.(rank - 1), n - rank)

let mean xs =
  match xs with
  | [] -> invalid_arg "mean: no samples"
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* --- host speed ------------------------------------------------------- *)

(* The host's speed drifts by a factor of up to two, in spells of
   seconds to minutes, and a spell can outlast a whole run: ten runs
   of the same work then spread by a quarter however long each one
   is. The drift
   appears to follow contention for the shared caches rather than the
   clock rate: a dependent float loop barely moves while a loop over a
   cache-sized buffer moves with the program.

   So the benchmark times a reference kernel of its own, a fixed walk
   over a 64 KiB buffer that never calls the program and never
   allocates, between timed intervals. A host-time metric is the
   interval scaled by [reference_kernel_s] over the kernel's median
   time within [window_s] of it, raised to [sensitivity]. The kernel
   does nothing but walk memory, so it reacts more strongly than the
   program. Over runs that met the host in slow and fast spells, the
   workloads' throughput and first-frame times moved as the kernel's
   time raised to 0.62-0.83 (README.md has the fit), so one exponent
   between them serves all three. A scaled time is the time the work would take on a host
   where the kernel takes exactly [reference_kernel_s], the middle of
   its range on the 2-core host. A change to the program moves the
   interval and not the kernel. *)
module Host_speed = struct
  let reference_kernel_s = 170e-6
  let sensitivity = 0.75
  let window_s = 0.5
  let cadence_s = 0.05  (* at most one sample per 50 ms *)
  let calls_per_sample = 5  (* a sample is the median of 5 kernel calls *)
  let min_near = 8

  let buf = Bytes.make 65_536 '\001'

  let kernel () =
    let acc = ref 0 in
    for r = 1 to 12 do
      let i = ref 0 in
      while !i < Bytes.length buf do
        acc := !acc + Char.code (Bytes.unsafe_get buf !i) + r;
        Bytes.unsafe_set buf !i (Char.unsafe_chr (!acc land 0x7f));
        i := !i + 8
      done
    done;
    !acc

  (* (clock reading, kernel seconds), newest first. *)
  let samples : (int64 * float) list ref = ref []


  let sample () =
    let call () =
      let t0 = now_ns () in
      ignore (Sys.opaque_identity (kernel ()));
      seconds_since t0
    in
    let ts = List.init calls_per_sample (fun _ -> call ()) in
    samples := (now_ns (), median ts) :: !samples

  (* Takes a sample unless one was taken within [cadence_s]; called
     before every timed interval, so each has a sample next to it. *)
  let tick () =
    match !samples with
    | (t, _) :: _ when seconds_since t < cadence_s -> ()
    | _ -> sample ()

  (* The samples in time order, rebuilt when a sample was added. *)
  let by_time = ref [||]

  let sorted_samples () =
    if Array.length !by_time <> List.length !samples then
      by_time := Array.of_list (List.rev !samples);
    !by_time

  (* Kernel seconds around [iv]: the median of the samples taken
     within [window_s] of it, widened to the [min_near] samples
     nearest to it where fewer were, as around a fleet run of
     several seconds that no sample can interrupt. *)
  let kernel_s_around iv =
    let a = sorted_samples () in
    let n = Array.length a in
    if n = 0 then invalid_arg "Host_speed: no samples";
    let w = Int64.of_float (window_s *. 1e9) in
    let lo_t = Int64.sub iv.start w and hi_t = Int64.add iv.stop w in
    (* the first index whose reading is at or after [t] *)
    let first_at_or_after t =
      let rec go lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if Int64.compare (fst a.(mid)) t < 0 then go (mid + 1) hi else go lo mid
      in
      go 0 n
    in
    let lo = ref (first_at_or_after lo_t)
    and hi = ref (first_at_or_after (Int64.succ hi_t)) in
    let dist i =
      let t = fst a.(i) in
      if Int64.compare t iv.start < 0 then Int64.sub iv.start t
      else if Int64.compare t iv.stop > 0 then Int64.sub t iv.stop
      else 0L
    in
    while !hi - !lo < min min_near n do
      if !lo = 0 then incr hi
      else if !hi = n then decr lo
      else if Int64.compare (dist (!lo - 1)) (dist !hi) <= 0 then decr lo
      else incr hi
    done;
    median (List.init (!hi - !lo) (fun k -> snd a.(!lo + k)))

  (* [iv]'s seconds at the reference speed; [sensitivity] overrides
     the exponent for work that reacts to the host differently. *)
  let scaled_s ?(sensitivity = sensitivity) iv =
    raw_s iv *. ((reference_kernel_s /. kernel_s_around iv) ** sensitivity)

  let kernel_median_s () = median (List.map snd !samples)
  let sample_count () = List.length !samples
end

(* --- results ---------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metrics : metric list ref = ref []

(* [report name ~unit_ ~samples value] records one metric and prints
   it with its sample count, the line a reader sees. *)
let report name ~unit_ ~samples value =
  if not (Float.is_finite value) then
    failwith (Printf.sprintf "metric %s is not finite" name);
  metrics := { name; value; unit_ } :: !metrics;
  Printf.printf "  %-48s %14.6g %-6s (n=%d)\n%!" name value unit_ samples

(* A percentile with sample support, or an error naming the shortfall:
   a workload must be sized so this never fires. *)
let report_percentile name ~p ~unit_ xs =
  let v, beyond = percentile p xs in
  if beyond < min_beyond then
    failwith
      (Printf.sprintf "%s: only %d of %d samples beyond p%.0f (need %d)" name
         beyond (List.length xs) (100. *. p) min_beyond);
  report name ~unit_ ~samples:(List.length xs) v

(* --- operations and output checks ------------------------------------- *)

let attempted = ref 0
let failed = ref 0
let checks_failed = ref 0

(* Sessions the program was asked to complete, and how many of them
   failed. *)
let operations ~attempted:n ~failed:f =
  attempted := !attempted + n;
  failed := !failed + f

let operation ok = operations ~attempted:1 ~failed:(if ok then 0 else 1)

(* An output check: counted as an operation, and printed by name when
   it fails. *)
let check name ok =
  operation ok;
  if not ok then begin
    incr checks_failed;
    Printf.printf "CHECK FAILED: %s\n%!" name
  end

(* The last line of standard output: exactly the keys the benchmark
   contract names. [correct] says every output check passed; [failed]
   also counts sessions that ended in [Error]. Values keep all their
   digits. *)
let print_result () =
  let metric m =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!checks_failed = 0)
    (max 1 !attempted) !failed
    (String.concat ", " (List.rev_map metric !metrics))

(* --- span recorder for the traced run ----------------------------------- *)

(* Spans live in the benchmark, not in [Obs.Trace]: turning the
   program's own tracing on would also turn on its metrics, monitor
   feeds and journal hooks, and the traced run would then measure a
   different program. *)
type span = {
  id : int;
  sname : string;
  parent : int;  (* -1 for a root *)
  session : int;  (* shared by one session's spans; -1 outside sessions *)
  start_ns : int64;
  mutable stop_ns : int64;
  mutable alloc_w : float;
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let open_spans : span list ref = ref []
let current_session = ref (-1)

(* [with_span name f] runs [f] under a span when tracing is on, and
   calls it directly otherwise — the untraced replay runs the same
   code with no recorder in the way. *)
let with_span name f =
  if not !tracing then f ()
  else begin
    let parent = match !open_spans with p :: _ -> p.id | [] -> -1 in
    let s =
      {
        id = !next_id;
        sname = name;
        parent;
        session = !current_session;
        start_ns = now_ns ();
        stop_ns = 0L;
        alloc_w = Gc.minor_words ();
      }
    in
    incr next_id;
    open_spans := s :: !open_spans;
    let finish () =
      s.stop_ns <- now_ns ();
      s.alloc_w <- Gc.minor_words () -. s.alloc_w;
      open_spans := List.tl !open_spans;
      spans := s :: !spans
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let in_session id f =
  let prev = !current_session in
  current_session := id;
  Fun.protect ~finally:(fun () -> current_session := prev) f

let duration_ns s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

(* Per span name: (count, total ns, self ns, allocated words). Self
   time is the span's duration minus the part its children cover;
   children of one span never overlap, since the replay is
   sequential. *)
let span_totals () =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((try Hashtbl.find children s.parent with Not_found -> 0.)
          +. duration_ns s))
    !spans;
  let acc = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = duration_ns s in
      let self = d -. (try Hashtbl.find children s.id with Not_found -> 0.) in
      let n, tot, sf, w =
        try Hashtbl.find acc s.sname with Not_found -> (0, 0., 0., 0.)
      in
      Hashtbl.replace acc s.sname (n + 1, tot +. d, sf +. self, w +. s.alloc_w))
    !spans;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Chrome trace_event JSON ("X" complete events, microseconds). *)
let write_chrome_trace ~path =
  let t0 =
    List.fold_left (fun m s -> if Int64.compare s.start_ns m < 0 then s.start_ns else m)
      Int64.max_int !spans
  in
  let us ns = Int64.to_float ns /. 1e3 in
  let events =
    List.rev_map
      (fun s ->
        Printf.sprintf
          "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"session\":%d,\"alloc_words\":%.0f}}"
          s.sname
          (us (Int64.sub s.start_ns t0))
          (duration_ns s /. 1e3) s.id s.parent s.session s.alloc_w)
      !spans
  in
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      output_string oc (String.concat ",\n" events);
      output_string oc "\n]}\n")

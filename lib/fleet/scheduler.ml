type config = {
  shards : int;
  vnodes : int;
  capacity : int;
  queue_limit : int;
  rules : Obs.Slo.rule list;
}

(* Windowed series the fleet monitor evaluates; declared at module
   initialisation so the offline SLO checker knows the names. *)
let s_fleet_completed = Obs.Monitor.declare_series "fleet_completed"
let s_fleet_failed = Obs.Monitor.declare_series "fleet_failed"
let s_fleet_shed = Obs.Monitor.declare_series "fleet_shed"
let g_fleet_device_savings = Obs.Monitor.declare_series "fleet_device_savings"

let default_rules () =
  [
    Obs.Slo.of_string_exn "fleet_failed_per_s == 0";
    Obs.Slo.of_string_exn "fleet_device_savings >= 0";
  ]

let default_config =
  {
    shards = 4;
    vnodes = 64;
    capacity = 64;
    queue_limit = 256;
    rules = default_rules ();
  }

(* One monitor observation, recorded on a shard's local timeline and
   merged fleet-wide afterwards. [gauge = None] bumps a windowed
   counter series; [Some v] sets a gauge. *)
type sample = { at_us : int; series : string; gauge : float option }

type shard_report = {
  shard : int;
  assigned : int;
  completed : int;
  degraded : int;
  failed : int;
  shed : int;
  ticks : int;
  peak_in_flight : int;
  sim_end_s : float;
  cache_hits : int;
  cache_misses : int;
  savings_sum : float;
  events : Obs.Journal.event list;
  samples : sample list;  (** chronological *)
}

type report = {
  config : config;
  sessions : int;
  completed : int;
  degraded : int;
  failed : int;
  shed : int;
  ticks : int;
  sim_duration_s : float;
  sessions_per_sim_second : float;
  mean_device_savings : float;
  shard_reports : shard_report array;
  journal_events : Obs.Journal.event list;
  monitor : Obs.Monitor.report;
}

let journal r = Obs.Journal.encode r.journal_events

(* --- a tiny binary min-heap on (time, sequence) ------------------------- *)

(* The event queue of the discrete-event loop. Ordering is total and
   deterministic: simulated microseconds first, push sequence second,
   so simultaneous events fire in the order the (sequential) shard
   loop created them. *)
module Heap = struct
  type 'a t = {
    mutable data : (int * int * 'a) array;
    mutable size : int;
    mutable seq : int;
  }

  let create () = { data = [||]; size = 0; seq = 0 }

  let before (t1, s1, _) (t2, s2, _) = t1 < t2 || (t1 = t2 && s1 < s2)

  let push h ~at_us v =
    let entry = (at_us, h.seq, v) in
    h.seq <- h.seq + 1;
    if h.size = Array.length h.data then
      h.data <-
        Array.append h.data
          (Array.make (max 64 (Array.length h.data)) entry);
    h.data.(h.size) <- entry;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while
      !i > 0
      &&
      let parent = (!i - 1) / 2 in
      before h.data.(!i) h.data.(parent)
    do
      let parent = (!i - 1) / 2 in
      let tmp = h.data.(parent) in
      h.data.(parent) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := parent
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && before h.data.(l) h.data.(!smallest) then
          smallest := l;
        if r < h.size && before h.data.(r) h.data.(!smallest) then
          smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = h.data.(!smallest) in
          h.data.(!smallest) <- h.data.(!i);
          h.data.(!i) <- tmp;
          i := !smallest
        end
      done;
      Some top
    end
end

let us_of_s s = int_of_float (Float.round (s *. 1e6))
let s_of_us us = float_of_int us /. 1e6

type pending = { id : int; clip_idx : int; arrival_us : int }

type running = {
  r_id : int;
  machine : Streaming.Session.machine;
  start_us : int;
  dt_us : int;
  total_frames : int;
}

type action = Arrive of pending | Step of running

(* --- one shard: a sequential discrete-event loop ------------------------ *)

let run_shard ~(config : config) ~session_config ~(clips : Video.Clip.t array)
    ~(load : Load.t) ~shard ~(assigned : pending array) =
  let journal = Obs.Journal.create () in
  let record ~at_us kind =
    Obs.Journal.record_in journal ~t_s:(s_of_us at_us) kind
  in
  record ~at_us:0
    (Obs.Journal.Fleet_shard_start
       { shard; shards = config.shards; sessions = Array.length assigned });
  (* The shard's prepared-stream cache: the first session of a clip
     builds its server-side artifacts, every later one shares them. *)
  let warm : (int, Streaming.Session.prepared_input) Hashtbl.t =
    Hashtbl.create 16
  in
  let cache_hits = ref 0 and cache_misses = ref 0 in
  let prepared_for clip_idx =
    match Hashtbl.find_opt warm clip_idx with
    | Some p ->
      incr cache_hits;
      p
    | None ->
      incr cache_misses;
      let p = Streaming.Session.prepare_input session_config clips.(clip_idx) in
      Hashtbl.add warm clip_idx p;
      p
  in
  let samples = ref [] in
  let sample ?gauge ~at_us series =
    samples := { at_us; series; gauge } :: !samples
  in
  let heap : action Heap.t = Heap.create () in
  let waiting : pending Queue.t = Queue.create () in
  let backlog : pending Queue.t = Queue.create () in
  let in_flight = ref 0 in
  let peak_in_flight = ref 0 in
  let completed = ref 0 in
  let degraded = ref 0 in
  let failed = ref 0 in
  let shed = ref 0 in
  let ticks = ref 0 in
  let savings_sum = ref 0. in
  let sim_end_us = ref 0 in
  (* Closed loop holds [concurrency] sessions in flight per shard (the
     shard loops are independent by construction, so the target cannot
     be fleet-global); open loop admits up to [capacity]. *)
  let slots =
    match load.Load.arrival with
    | Load.Open_loop -> config.capacity
    | Load.Closed_loop -> min config.capacity load.Load.concurrency
  in
  let schedule_next (r : running) =
    match Streaming.Session.progress r.machine with
    | `Frame i -> Heap.push heap ~at_us:(r.start_us + (i * r.dt_us)) (Step r)
    | `Finalize ->
      Heap.push heap ~at_us:(r.start_us + (r.total_frames * r.dt_us)) (Step r)
    | `Setup | `Complete -> ()
  in
  let finish (r : running) ~at_us =
    (match Streaming.Session.result r.machine with
    | Some (Ok rep) ->
      incr completed;
      let is_degraded =
        (not rep.Streaming.Session.annotations_survived)
        || rep.Streaming.Session.degraded_scenes > 0
      in
      if is_degraded then incr degraded;
      savings_sum := !savings_sum +. rep.Streaming.Session.device_savings;
      record ~at_us
        (Obs.Journal.Fleet_session_end
           {
             session = r.r_id;
             outcome = (if is_degraded then "degraded" else "ok");
             degraded_scenes = rep.Streaming.Session.degraded_scenes;
           });
      sample ~at_us s_fleet_completed;
      sample ~at_us ~gauge:rep.Streaming.Session.device_savings
        g_fleet_device_savings
    | Some (Error _) | None ->
      incr completed;
      incr failed;
      record ~at_us
        (Obs.Journal.Fleet_session_end
           { session = r.r_id; outcome = "error"; degraded_scenes = 0 });
      sample ~at_us s_fleet_completed;
      sample ~at_us s_fleet_failed);
    decr in_flight
  in
  let rec admit (p : pending) ~at_us =
    record ~at_us
      (Obs.Journal.Fleet_admission
         {
           session = p.id;
           decision = "admitted";
           in_flight = !in_flight;
           queued = Queue.length waiting;
         });
    incr in_flight;
    if !in_flight > !peak_in_flight then peak_in_flight := !in_flight;
    let cfg =
      { session_config with Streaming.Session.seed = session_config.seed + p.id }
    in
    let machine =
      Streaming.Session.create ~prepared:(prepared_for p.clip_idx) cfg
        clips.(p.clip_idx)
    in
    (* Session-start, transmit and decode all resolve at admission
       time; the per-frame ticks then interleave with every other
       running session on the shard clock. *)
    let rec setup () =
      match Streaming.Session.progress machine with
      | `Setup ->
        ignore (Streaming.Session.step machine);
        incr ticks;
        setup ()
      | `Frame _ | `Finalize | `Complete -> ()
    in
    setup ();
    let r =
      {
        r_id = p.id;
        machine;
        start_us = at_us;
        dt_us = us_of_s (Streaming.Session.dt_s machine);
        total_frames = Streaming.Session.frames machine;
      }
    in
    match Streaming.Session.progress machine with
    | `Complete -> finish r ~at_us; release ~at_us
    | _ -> schedule_next r
  and release ~at_us =
    (* A slot freed: pull from the waiting room first, then (closed
       loop) start the next session of the backlog. *)
    if !in_flight < slots then
      match Queue.take_opt waiting with
      | Some p -> admit p ~at_us
      | None -> (
        match Queue.take_opt backlog with
        | Some p ->
          record ~at_us
            (Obs.Journal.Fleet_arrival
               { session = p.id; clip = clips.(p.clip_idx).Video.Clip.name });
          admit p ~at_us
        | None -> ())
  in
  let arrive (p : pending) ~at_us =
    record ~at_us
      (Obs.Journal.Fleet_arrival
         { session = p.id; clip = clips.(p.clip_idx).Video.Clip.name });
    if !in_flight < slots then admit p ~at_us
    else if Queue.length waiting < config.queue_limit then begin
      record ~at_us
        (Obs.Journal.Fleet_admission
           {
             session = p.id;
             decision = "queued";
             in_flight = !in_flight;
             queued = Queue.length waiting;
           });
      Queue.push p waiting
    end
    else begin
      incr shed;
      record ~at_us
        (Obs.Journal.Fleet_admission
           {
             session = p.id;
             decision = "shed";
             in_flight = !in_flight;
             queued = Queue.length waiting;
           });
      sample ~at_us s_fleet_shed
    end
  in
  (match load.Load.arrival with
  | Load.Open_loop ->
    Array.iter (fun p -> Heap.push heap ~at_us:p.arrival_us (Arrive p)) assigned
  | Load.Closed_loop ->
    (* Feed the backlog in session order and pull the first window in
       through [release] so the admission path is uniform. *)
    Array.iter (fun p -> Queue.push p backlog) assigned;
    for _ = 1 to slots do
      release ~at_us:0
    done);
  let rec drain () =
    match Heap.pop heap with
    | None -> ()
    | Some (at_us, _, Arrive p) ->
      if at_us > !sim_end_us then sim_end_us := at_us;
      arrive p ~at_us;
      drain ()
    | Some (at_us, _, Step r) ->
      if at_us > !sim_end_us then sim_end_us := at_us;
      ignore (Streaming.Session.step r.machine);
      incr ticks;
      (match Streaming.Session.progress r.machine with
      | `Complete ->
        finish r ~at_us;
        release ~at_us
      | _ -> schedule_next r);
      drain ()
  in
  drain ();
  {
    shard;
    assigned = Array.length assigned;
    completed = !completed;
    degraded = !degraded;
    failed = !failed;
    shed = !shed;
    ticks = !ticks;
    peak_in_flight = !peak_in_flight;
    sim_end_s = s_of_us !sim_end_us;
    cache_hits = !cache_hits;
    cache_misses = !cache_misses;
    savings_sum = !savings_sum;
    events = Obs.Journal.events journal;
    samples = List.rev !samples;
  }

(* --- fleet-level rollup ------------------------------------------------- *)

(* Merge every shard's chronological samples into one fleet timeline
   and replay it through a fresh monitor. Ordering is (time, shard,
   intra-shard index) — total and deterministic, so the rollup report
   is identical at any domain count. *)
let rollup_monitor ~(config : config) shard_reports =
  let all =
    Array.of_list
      (List.concat_map
         (fun sr -> List.mapi (fun i s -> (s.at_us, sr.shard, i, s)) sr.samples)
         (Array.to_list shard_reports))
  in
  Array.stable_sort
    (fun (t1, sh1, i1, _) (t2, sh2, i2, _) ->
      compare (t1, sh1, i1) (t2, sh2, i2))
    all;
  let m = Obs.Monitor.create ~rules:config.rules () in
  Array.iter
    (fun (at_us, _, _, s) ->
      Obs.Monitor.tick m ~now_s:(s_of_us at_us);
      match s.gauge with
      | Some v -> Obs.Monitor.set_gauge m s.series v
      | None -> Obs.Monitor.incr m s.series)
    all;
  Obs.Monitor.report m

let run ?pool config ~session_config ~(clips : Video.Clip.t array)
    ~(load : Load.t) =
  if Array.length clips = 0 then
    invalid_arg "Fleet.Scheduler.run: empty catalog";
  if config.shards < 1 then
    invalid_arg "Fleet.Scheduler.run: shards must be >= 1";
  if config.capacity < 1 then
    invalid_arg "Fleet.Scheduler.run: capacity must be >= 1";
  if config.queue_limit < 0 then
    invalid_arg "Fleet.Scheduler.run: queue_limit must be >= 0";
  let plan = Load.plan load ~catalog:(Array.length clips) in
  let ring = Chash.create ~vnodes:config.vnodes ~shards:config.shards () in
  let shard_of_clip =
    Array.map (fun c -> Chash.lookup ring c.Video.Clip.name) clips
  in
  let per_shard = Array.make config.shards [] in
  for id = load.Load.sessions - 1 downto 0 do
    let clip_idx = plan.Load.clip_of.(id) in
    let shard = shard_of_clip.(clip_idx) in
    per_shard.(shard) <-
      { id; clip_idx; arrival_us = us_of_s plan.Load.arrival_s.(id) }
      :: per_shard.(shard)
  done;
  let shard_ids = Array.init config.shards (fun s -> s) in
  let run_one s =
    run_shard ~config ~session_config ~clips ~load ~shard:s
      ~assigned:(Array.of_list per_shard.(s))
  in
  (* Shards are fully independent sequential loops over disjoint
     state, so mapping them across pool domains cannot change any
     shard's byte stream — parallelism is a wall-clock knob only. *)
  let shard_reports =
    match pool with
    | None -> Array.map run_one shard_ids
    | Some pool -> Par.Pool.map_array pool run_one shard_ids
  in
  let sum f = Array.fold_left (fun acc sr -> acc + f sr) 0 shard_reports in
  let completed = sum (fun sr -> sr.completed) in
  let sim_duration_s =
    Array.fold_left (fun acc sr -> Float.max acc sr.sim_end_s) 0. shard_reports
  in
  let savings_sum =
    Array.fold_left (fun acc sr -> acc +. sr.savings_sum) 0. shard_reports
  in
  let ok = completed - sum (fun sr -> sr.failed) in
  {
    config;
    sessions = load.Load.sessions;
    completed;
    degraded = sum (fun sr -> sr.degraded);
    failed = sum (fun sr -> sr.failed);
    shed = sum (fun sr -> sr.shed);
    ticks = sum (fun sr -> sr.ticks);
    sim_duration_s;
    sessions_per_sim_second =
      (if sim_duration_s > 0. then float_of_int completed /. sim_duration_s
       else 0.);
    mean_device_savings =
      (if ok > 0 then savings_sum /. float_of_int ok else 0.);
    shard_reports;
    journal_events =
      List.concat_map
        (fun sr -> sr.events)
        (Array.to_list shard_reports);
    monitor = rollup_monitor ~config shard_reports;
  }

let pp_report ppf r =
  let open Format in
  fprintf ppf
    "@[<v>fleet: %d sessions over %d shards, %.1f simulated s@,\
     completed %d (%d degraded, %d failed), shed %d, %d machine ticks@,\
     %.1f sessions per simulated second, mean device savings %.1f%%@]"
    r.sessions r.config.shards r.sim_duration_s r.completed r.degraded r.failed
    r.shed r.ticks r.sessions_per_sim_second
    (100. *. r.mean_device_savings);
  Array.iter
    (fun sr ->
      fprintf ppf
        "@,\
         shard %d: %d assigned, %d completed, %d shed, peak %d in flight, \
         cache %d/%d"
        sr.shard sr.assigned sr.completed sr.shed sr.peak_in_flight
        sr.cache_hits (sr.cache_hits + sr.cache_misses))
    r.shard_reports

(* The three workloads: their inputs (a pure function of the seed),
   their set-up, and their timed sections. Timed sections run on one
   domain with the benchmark's tracing off and call only the stable
   entry points — [Streaming.Session.create]/[step]/[result] and
   [Fleet.Scheduler.run] — so refactors behind them need no edit
   here. *)

open Bench_util

let device = Display.Device.ipaq_h5555

let ok_or_fail what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

(* The first [n] frames of [clip], still rendered on demand. *)
let cut n (c : Video.Clip.t) =
  Video.Clip.make ~name:c.name ~width:c.width ~height:c.height ~fps:c.fps
    ~frame_count:(min n c.frame_count) c.render

(* A paper workload with its content noise drawn from the bench seed:
   scene layout and luminance character stay the paper's, the grain
   and highlight placement move with the seed. *)
let paper_clip ~seed ~width ~height ~frames (p : Video.Profile.t) =
  cut frames
    (Video.Clip_gen.render ~width ~height ~fps:12.
       { p with Video.Profile.seed = p.Video.Profile.seed + (7919 * seed) })

let run_to_frame0 m =
  let rec go () =
    match Streaming.Session.progress m with
    | `Setup ->
      ignore (Streaming.Session.step m);
      go ()
    | `Frame _ | `Finalize | `Complete -> ()
  in
  go ()

let run_to_done m =
  let rec go () =
    match Streaming.Session.step m with `Done -> () | `Running -> go ()
  in
  go ()

(* Runs [f] as one client session with the program's obs and
   monitoring on, its own journal installed and a monitor on [rules];
   returns [f]'s result and the journal. *)
let with_session_obs ~rules f =
  let journal = Obs.Journal.create () in
  Obs.enable ();
  Obs.enable_monitoring ();
  Obs.Journal.install journal;
  Obs.Monitor.install (Obs.Monitor.create ~rules ());
  let r =
    Fun.protect
      ~finally:(fun () ->
        Obs.Journal.uninstall ();
        Obs.Monitor.uninstall ();
        (* The program's span collector grows without bound; one
           session's spans are dropped once it ends. *)
        Obs.Trace.reset ();
        Obs.disable_monitoring ();
        Obs.disable ())
      f
  in
  (r, journal)

(* Host seconds spent in the minor collections [play] forces before
   its sessions. They lie outside every timed interval, and the
   timed-section line prints their total beside it. *)
let forced_gc_s = ref 0.

(* One session through the poll-able machine: the host-time intervals
   to the first frame and in total, and the outcome. Every session
   starts from an emptied minor heap, so whether a leftover
   collection falls before the first frame does not split the
   first-frame times into two modes, and p50 does not jump between
   them from run to run. The forced collection is not part of the
   session: the program does not force one in use, so it is timed
   apart ([forced_gc_s]) and left out of both times. The session's
   own collections count in full. A host-speed sample may be taken
   before the session, outside it too. *)
let play ?prepared config clip =
  Host_speed.tick ();
  let (), gc_s = timed Gc.minor in
  forced_gc_s := !forced_gc_s +. gc_s;
  let t0 = now_ns () in
  let m = Streaming.Session.create ?prepared config clip in
  run_to_frame0 m;
  let first_frame = interval_since t0 in
  run_to_done m;
  let total = interval_since t0 in
  let outcome =
    match Streaming.Session.result m with
    | Some r -> r
    | None -> Error "machine did not finish"
  in
  (first_frame, total, outcome)

(* Accumulators of a timed section. Throughput is total over total:
   the host drifts between fast and slow spells lasting seconds, and a
   median over short pieces of the section would jump between the two
   speeds where the mean blends them. [timed_s] is unscaled: it ends
   the section after [--seconds] of host time. *)
type section = {
  mutable timed_s : float;
  mutable intervals : interval list;  (* every timed interval *)
  mutable frames : int;  (* simulated frames of completed sessions *)
  mutable completed : int;
  mutable first_frame : interval list;
}

let section () =
  { timed_s = 0.; intervals = []; frames = 0; completed = 0; first_frame = [] }

let time_interval sec iv =
  sec.timed_s <- sec.timed_s +. raw_s iv;
  sec.intervals <- iv :: sec.intervals

(* Adds one played session to the timed section. *)
let record sec (first_frame, total, outcome) =
  time_interval sec total;
  sec.first_frame <- first_frame :: sec.first_frame;
  operation (Result.is_ok outcome);
  match outcome with
  | Ok (r : Streaming.Session.report) ->
    sec.completed <- sec.completed + 1;
    sec.frames <- sec.frames + r.frames
  | Error _ -> ()

(* The scored set: a fixed prefix of the offered sessions, the same on
   every run of a seed however many sessions the host gets through, so
   the quality metrics repeat exactly. *)
type scored = {
  mutable offered : int;
  mutable served : int;
  mutable savings : float list;
  mutable psnr : float list;
}

let scored () = { offered = 0; served = 0; savings = []; psnr = [] }

let score sc = function
  | Ok (r : Streaming.Session.report) ->
    sc.offered <- sc.offered + 1;
    sc.served <- sc.served + 1;
    sc.savings <- r.Streaming.Session.device_savings :: sc.savings;
    sc.psnr <- r.Streaming.Session.video_mean_psnr :: sc.psnr
  | Error _ -> sc.offered <- sc.offered + 1

(* A workload's set-up, timed in [blocks] blocks of [per_block]
   set-ups. The first block runs before the first timed session and
   yields the inputs. The others run between sessions, spread evenly
   over the timed section ([setup_due]), so their median samples the
   host's fast and slow spells as the throughput total does; a few
   set-ups in a row at the start would all land in one spell. A block
   averages set-ups too short to time one by one, and starts from an
   emptied minor heap, so whether it pays for a collection of earlier
   garbage does not split the timings into two modes. [sensitivity]
   is the host-speed exponent for set-up where it differs from the
   sessions' (see [Fleet_flash.setup_sensitivity]). *)
type 'a setups = {
  make : unit -> 'a;
  blocks : int;
  per_block : int;
  sensitivity : float;
  mutable times : interval list;  (* one per block *)
}

let setup_block s =
  Host_speed.tick ();
  Gc.minor ();
  let t0 = now_ns () in
  let last = ref (s.make ()) in
  for _ = 2 to s.per_block do
    last := s.make ()
  done;
  s.times <- interval_since t0 :: s.times;
  !last

(* Runs the first block; returns its inputs and the set-up record. *)
let first_setup ?(per_block = 1) ?(sensitivity = Host_speed.sensitivity) ~blocks
    make =
  let s = { make; blocks; per_block; sensitivity; times = [] } in
  let inputs = setup_block s in
  (inputs, s)

(* Runs the blocks that are due once [timed_s] of [seconds] have been
   timed: block [i] is due at [i * seconds / blocks]. After the timed
   section ([timed_s >= seconds]) every remaining block is due. *)
let setup_due s ~seconds ~timed_s =
  while
    List.length s.times < s.blocks
    && timed_s >= float_of_int (List.length s.times) *. seconds /. float_of_int s.blocks
  do
    ignore (Sys.opaque_identity (setup_block s))
  done

(* Host-time metrics are scaled to the reference speed (see
   [Host_speed]); the unscaled figures are printed beside them. *)
let report_end_to_end setups sec sc =
  Host_speed.sample ();
  let sum f l = List.fold_left (fun a iv -> a +. f iv) 0. l in
  let per_setup f =
    List.map (fun iv -> f iv /. float_of_int setups.per_block) setups.times
  in
  let ms f l = List.map (fun iv -> 1000. *. f iv) l in
  let scaled_s = sum Host_speed.scaled_s sec.intervals in
  Printf.printf
    "  timed section: %.2f s, %d sessions; forced minor collections outside it: \
     %.3f s (%.2f%% of it)\n"
    sec.timed_s sec.completed !forced_gc_s
    (100. *. !forced_gc_s /. sec.timed_s);
  Printf.printf
    "  host speed: reference kernel median %.1f us over %d samples (reference %.0f \
     us, exponent %g); unscaled: setup_s %.6g, frames_per_s %.6g, \
     first_frame_p50_ms %.6g\n"
    (1e6 *. Host_speed.kernel_median_s ())
    (Host_speed.sample_count ())
    (1e6 *. Host_speed.reference_kernel_s)
    Host_speed.sensitivity
    (median (per_setup raw_s))
    (float_of_int sec.frames /. sec.timed_s)
    (fst (percentile 0.5 (ms raw_s sec.first_frame)));
  report "setup_s" ~unit_:"s" ~samples:(List.length setups.times)
    (median (per_setup (Host_speed.scaled_s ~sensitivity:setups.sensitivity)));
  report "frames_per_s" ~unit_:"1/s" ~samples:sec.completed
    (float_of_int sec.frames /. scaled_s);
  report "sessions_per_s" ~unit_:"1/s" ~samples:sec.completed
    (float_of_int sec.completed /. scaled_s);
  let first_frame_ms = ms Host_speed.scaled_s sec.first_frame in
  report_percentile "first_frame_p50_ms" ~p:0.5 ~unit_:"ms" first_frame_ms;
  report_percentile "first_frame_p90_ms" ~p:0.9 ~unit_:"ms" first_frame_ms;
  let st = Gc.quick_stat () in
  report "peak_heap_mb" ~unit_:"MB" ~samples:1
    (float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8))
    /. (1024. *. 1024.));
  report "served_pct" ~unit_:"%" ~samples:sc.offered
    (100. *. float_of_int sc.served /. float_of_int sc.offered);
  report "device_savings_pct" ~unit_:"%" ~samples:sc.served
    (100. *. mean sc.savings);
  report "mean_psnr_db" ~unit_:"dB" ~samples:(List.length sc.psnr) (mean sc.psnr)

(* Field-by-field report equality; the embedded config holds the
   device record, which is the same value on both sides by
   construction. *)
let same_report (a : Streaming.Session.report) (b : Streaming.Session.report) =
  let open Streaming.Session in
  a.frames = b.frames
  && Float.equal a.duration_s b.duration_s
  && a.video_bytes = b.video_bytes
  && a.annotation_bytes = b.annotation_bytes
  && a.annotations_survived = b.annotations_survived
  && Float.equal a.video_mean_psnr b.video_mean_psnr
  && a.concealed_frames = b.concealed_frames
  && Float.equal a.backlight_savings b.backlight_savings
  && Float.equal a.cpu_savings b.cpu_savings
  && Float.equal a.radio_savings b.radio_savings
  && Float.equal a.device_savings b.device_savings
  && Float.equal a.device_energy_mj b.device_energy_mj
  && Float.equal a.baseline_energy_mj b.baseline_energy_mj
  && a.degraded_scenes = b.degraded_scenes
  && a.retransmissions = b.retransmissions
  && a.corrupt_records = b.corrupt_records

(* --- vod-cold ----------------------------------------------------------- *)

(* Every session is a fresh machine with no cache anywhere: profile,
   annotate and encode run inside the session, so the encoder (about
   three quarters of a cold session) dominates. *)
module Vod_cold = struct
  let frames = 8
  let min_passes = 10  (* 100 sessions: p90 has 10 samples beyond it *)
  let scored_passes = 2
  let checked = [ 0; 5 ]  (* sessions of pass 0 replayed through Session.run *)
  let setup_blocks = 15
  let setups_per_block = 2_000  (* a set-up takes a few µs *)

  type inputs = { clips : Video.Clip.t array; config : Streaming.Session.config }

  let setup ~seed () =
    {
      clips =
        Array.of_list
          (List.map
             (paper_clip ~seed ~width:96 ~height:72 ~frames)
             Video.Workloads.all);
      config = Streaming.Session.default_config ~device;
    }

  (* A pass plays every clip of the catalog once, in the paper's
     figure order; session [j] of pass [pass] plays clip [j]. *)
  let session_config inp ~seed ~pass j =
    {
      inp.config with
      Streaming.Session.seed = (seed * 100_003) + (pass * Array.length inp.clips) + j;
    }

  let run ~seed ~seconds =
    let inp, setups =
      first_setup ~blocks:setup_blocks ~per_block:setups_per_block (setup ~seed)
    in
    let sec = section () and sc = scored () in
    let pass = ref 0 in
    while !pass < min_passes || sec.timed_s < seconds do
      setup_due setups ~seconds ~timed_s:sec.timed_s;
      Array.iteri
        (fun j clip ->
          let config = session_config inp ~seed ~pass:!pass j in
          let ((_, _, outcome) as played) = play config clip in
          record sec played;
          if !pass < scored_passes then score sc outcome;
          if !pass = 0 && List.mem j checked then
            check
              (Printf.sprintf "vod-cold: stepped report = Session.run (%s)"
                 clip.Video.Clip.name)
              (match (outcome, Streaming.Session.run config clip) with
              | Ok a, Ok b -> same_report a b
              | _ -> false))
        inp.clips;
      incr pass
    done;
    setup_due setups ~seconds ~timed_s:sec.timed_s;
    report_end_to_end setups sec sc
end

(* --- fleet-flash -------------------------------------------------------- *)

(* The E20 shape on half the time axis: an open loop with Zipf
   popularity, a diurnal swing and a x4 flash crowd that overruns the
   admission queues of 4 shards. Arrivals live on the simulated clock,
   so the generator can never run late in host time. *)
module Fleet_flash = struct
  let sessions = 5_000
  let min_runs = 2
  let probe_sessions = 200  (* first-frame probe per fleet run *)
  let setup_blocks = 15
  let setups_per_block = 10

  (* Set-up here is mostly the 5,000-session load plan: arithmetic on
     small arrays, which reacts to the host's spells about half as
     much as the sessions do. Two fits of log set-up time on log
     kernel time gave 0.36 +- 0.03 (20 runs of 30 s) and 0.34 +- 0.05
     (12 runs of 6 s); under the sessions' 0.75 its median moved 18%
     between two sets of ten runs. *)
  let setup_sensitivity = 0.35

  let config =
    {
      Fleet.Scheduler.default_config with
      Fleet.Scheduler.shards = 4;
      capacity = 96;
      queue_limit = 64;
    }

  let load ~seed =
    {
      Fleet.Load.default with
      Fleet.Load.sessions;
      rate_per_s = 150.;
      diurnal_amplitude = 0.3;
      diurnal_period_s = 20.;
      spike_at_s = Some 15.;
      spike_factor = 4.;
      spike_width_s = 5.;
      seed;
    }

  (* Sixteen tiny parametric clips, as in E20: fleet cost comes from
     interleaving thousands of sessions, not from frame size. *)
  let catalog () =
    Array.init 16 (fun i ->
        Video.Clip_gen.render ~width:16 ~height:12 ~fps:8.
          (Video.Workloads.parametric ~seconds:1.0
             ~base_level:(30 + (12 * i))
             ~highlight_peak:(140 + (5 * i))
             ()))

  type inputs = {
    clips : Video.Clip.t array;
    session_config : Streaming.Session.config;
    load : Fleet.Load.t;
    plan : Fleet.Load.plan;  (* which clip each session plays, for the probe *)
  }

  let setup ~seed () =
    let clips = catalog () in
    let load = load ~seed in
    {
      clips;
      session_config = Streaming.Session.default_config ~device;
      load;
      plan = Fleet.Load.plan load ~catalog:(Array.length clips);
    }

  (* What a shard's warm table serves, for the first-frame probe. Only
     the probe uses it, so it is built after the timed set-up: each
     fleet run builds its shards' own tables inside its timed
     section. *)
  let warm inp =
    Array.map (Streaming.Session.prepare_input inp.session_config) inp.clips

  (* Probe session [k]: an evenly spaced session of the plan, with the
     catalog index it plays and the config the scheduler gives it. *)
  let probe inp k =
    let id = k * (sessions / probe_sessions) in
    ( inp.plan.Fleet.Load.clip_of.(id),
      {
        inp.session_config with
        Streaming.Session.seed = inp.session_config.seed + id;
      } )

  (* Per shard, every assigned session ends served, shed or failed
     (the report's [completed] counts failed sessions too), and the
     shards together were assigned exactly the offered sessions. *)
  let accounting_balances (r : Fleet.Scheduler.report) =
    let per_shard =
      Array.for_all
        (fun (s : Fleet.Scheduler.shard_report) ->
          let served = s.completed - s.failed in
          s.assigned = served + s.shed + s.failed)
        r.shard_reports
    in
    let assigned =
      Array.fold_left
        (fun a (s : Fleet.Scheduler.shard_report) -> a + s.assigned)
        0 r.shard_reports
    in
    per_shard && assigned = r.sessions

  (* Simulated frames of the sessions that ended well, from the
     journal's session-end records. *)
  let served_frames inp (r : Fleet.Scheduler.report) =
    List.fold_left
      (fun acc (e : Obs.Journal.event) ->
        match e.kind with
        | Obs.Journal.Fleet_session_end { session; outcome; _ }
          when outcome <> "error" ->
          acc + inp.clips.(inp.plan.Fleet.Load.clip_of.(session)).Video.Clip.frame_count
        | _ -> acc)
      0 r.journal_events

  let run ~seed ~seconds =
    let inp, setups =
      first_setup ~blocks:setup_blocks ~per_block:setups_per_block
        ~sensitivity:setup_sensitivity (setup ~seed)
    in
    let warm = warm inp in
    let sec = section () and sc = scored () in
    let runs = ref 0 in
    while !runs < min_runs || sec.timed_s < seconds do
      setup_due setups ~seconds ~timed_s:sec.timed_s;
      Host_speed.tick ();
      let t0 = now_ns () in
      let r =
        Fleet.Scheduler.run config ~session_config:inp.session_config
          ~clips:inp.clips ~load:inp.load
      in
      time_interval sec (interval_since t0);
      Host_speed.sample ();
      let served = r.completed - r.failed in
      sec.completed <- sec.completed + served;
      sec.frames <- sec.frames + served_frames inp r;
      operations ~attempted:r.sessions ~failed:r.failed;
      check "fleet-flash: per-shard accounting balances" (accounting_balances r);
      check "fleet-flash: journal verifies clean"
        (Check.Artifact.check_journal ~file:"fleet-flash.journal"
           (Fleet.Scheduler.journal r)
        = []);
      (* A sample of the run's sessions replayed standalone on the warm
         artifacts a shard would inject: the viewer's first frame on a
         warm shard. Not part of the fleet's timed section. *)
      for k = 0 to probe_sessions - 1 do
        let clip_idx, config = probe inp k in
        let ff, _, outcome =
          play ~prepared:warm.(clip_idx) config inp.clips.(clip_idx)
        in
        sec.first_frame <- ff :: sec.first_frame;
        if !runs = 0 then
          match outcome with
          | Ok rep -> sc.psnr <- rep.Streaming.Session.video_mean_psnr :: sc.psnr
          | Error _ -> check "fleet-flash: probe session completes" false
      done;
      if !runs = 0 then begin
        sc.offered <- r.sessions;
        sc.served <- served;
        sc.savings <- [ r.mean_device_savings ]
      end;
      incr runs
    done;
    setup_due setups ~seconds ~timed_s:sec.timed_s;
    report_end_to_end setups sec sc
end

(* --- chaos-warm --------------------------------------------------------- *)

(* Warm sessions under bursty loss with the aggressive resilience
   plane, the program's obs, monitor and journal on: the decoder's
   concealment path and telemetry on every frame, and no encoder work
   in the timed section. *)
module Chaos_warm = struct
  let frames = 48
  let rounds = 10  (* at least 100 sessions, all of them scored *)
  let setup_blocks = 7  (* a set-up takes about 1 s *)

  type inputs = {
    clips : Video.Clip.t array;
    prepared : Streaming.Session.prepared_input array;
    config : Streaming.Session.config;
    rules : Obs.Slo.rule list;
  }

  let setup ~seed () =
    let fault =
      ok_or_fail "examples/chaos.fault"
        (Streaming.Fault.load ~path:"examples/chaos.fault")
    in
    let resilience =
      ok_or_fail "examples/aggressive.resilience"
        (Resilience.Profile.load ~path:"examples/aggressive.resilience")
    in
    let rules =
      ok_or_fail "examples/default.slo" (Obs.Slo.load ~path:"examples/default.slo")
    in
    let clips =
      Array.of_list
        (List.map (paper_clip ~seed ~width:32 ~height:24 ~frames) Video.Workloads.all)
    in
    let config =
      {
        (Streaming.Session.default_config ~device) with
        Streaming.Session.fault = Some fault;
        resilience = Some resilience;
      }
    in
    {
      clips;
      prepared = Array.map (Streaming.Session.prepare_input config) clips;
      config;
      rules;
    }

  (* Session [k] plays clip [k mod 10]: a round plays every clip of
     the catalog once, in the paper's figure order. *)
  let clip_of inp k = k mod Array.length inp.clips

  let session_config inp ~seed k =
    { inp.config with Streaming.Session.seed = (seed * 100_003) + k }

  let run ~seed ~seconds =
    let inp, setups = first_setup ~blocks:setup_blocks (setup ~seed) in
    let sec = section () and sc = scored () in
    let k = ref 0 in
    let scored_sessions = rounds * Array.length inp.clips in
    while !k < scored_sessions || sec.timed_s < seconds do
      setup_due setups ~seconds ~timed_s:sec.timed_s;
      let i = clip_of inp !k in
      let ((_, _, outcome) as played), journal =
        with_session_obs ~rules:inp.rules (fun () ->
            play ~prepared:inp.prepared.(i) (session_config inp ~seed !k)
              inp.clips.(i))
      in
      record sec played;
      if !k < scored_sessions then score sc outcome;
      check
        (Printf.sprintf "chaos-warm: journal of session %d verifies clean" !k)
        (Check.Artifact.check_journal ~file:"chaos-warm.journal"
           (Obs.Journal.to_string journal)
        = []);
      incr k
    done;
    setup_due setups ~seconds ~timed_s:sec.timed_s;
    report_end_to_end setups sec sc
end

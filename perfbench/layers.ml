(* The traced run: a workload's sessions replayed layer by layer, with
   a span around every call into a layer's public functions, plus
   probes of the codec kernels, the server cache, the fleet scheduler
   and the program's observability. Prints the per-layer metrics, the
   self time of every span, and the tracing overhead (traced minus
   untraced frames/s of the same replay). *)

open Bench_util
module W = Workloads

(* What a workload's traced run works on. *)
type subject = {
  clips : Video.Clip.t array;
  config : Streaming.Session.config;
  cold : bool;  (* server side rebuilt inside every session *)
  observed : bool;  (* sessions run with obs, monitor and journal on *)
  rules : Obs.Slo.rule list;
  replay : (int * Streaming.Session.config) array;
      (* the sessions replayed: catalog index and session config *)
  fleet : Fleet.Scheduler.config * Fleet.Load.t;
}

(* Workloads without a fleet of their own probe the scheduler with a
   small open loop over their catalog and session config. *)
let small_fleet ~seed =
  ( W.Fleet_flash.config,
    { Fleet.Load.default with Fleet.Load.sessions = 40; rate_per_s = 10.; seed } )

let subject ~workload ~seed =
  match workload with
  | "vod-cold" ->
    let inp = W.Vod_cold.setup ~seed () in
    {
      clips = inp.clips;
      config = inp.config;
      cold = true;
      observed = false;
      rules = [];
      replay =
        Array.init (Array.length inp.clips) (fun j ->
            (j, W.Vod_cold.session_config inp ~seed ~pass:0 j));
      fleet = small_fleet ~seed;
    }
  | "fleet-flash" ->
    let inp = W.Fleet_flash.setup ~seed () in
    {
      clips = inp.clips;
      config = inp.session_config;
      cold = false;
      observed = false;
      rules = [];
      replay = Array.init W.Fleet_flash.probe_sessions (W.Fleet_flash.probe inp);
      fleet = (W.Fleet_flash.config, inp.load);
    }
  | _ ->
    let inp = W.Chaos_warm.setup ~seed () in
    {
      clips = inp.clips;
      config = inp.config;
      cold = false;
      observed = true;
      rules = inp.rules;
      replay =
        Array.init (W.Chaos_warm.rounds * Array.length inp.clips) (fun k ->
            (W.Chaos_warm.clip_of inp k, W.Chaos_warm.session_config inp ~seed k));
      fleet = small_fleet ~seed;
    }

(* --- the server side, one layer at a time ---------------------------- *)

(* The steps of [Streaming.Session.prepare_input] (server-side
   mapping), each under its own span. A check below holds this
   replay byte-equal to [prepare_input]. *)
let prepare_layers (config : Streaming.Session.config) clip =
  with_span "video.render" (fun () -> Video.Clip.iter_frames (fun _ _ -> ()) clip);
  let profiled =
    with_span "annot.profile" (fun () -> Annotation.Annotator.profile clip)
  in
  let track, annotation_payload =
    with_span "annot.annotate" (fun () ->
        let track =
          Annotation.Annotator.annotate_profiled ~device:config.device
            ~quality:config.quality profiled
        in
        (track, Annotation.Encoding.encode track))
  in
  let protected =
    Streaming.Fec.protect ~packet_size:24 ~group_size:3 annotation_payload
  in
  let encoded =
    with_span "codec.encode" (fun () ->
        Codec.Encoder.encode_clip
          ~params:{ Codec.Stream.default_params with gop = config.gop }
          clip)
  in
  let clean =
    with_span "codec.decode" (fun () ->
        Result.to_option (Codec.Decoder.decode encoded.Codec.Encoder.data))
  in
  { Streaming.Session.track; annotation_payload; protected; encoded; clean }

let same_prepared (a : Streaming.Session.prepared_input)
    (b : Streaming.Session.prepared_input) =
  a.annotation_payload = b.annotation_payload
  && a.encoded.Codec.Encoder.data = b.encoded.Codec.Encoder.data
  && a.protected.Streaming.Fec.packets = b.protected.Streaming.Fec.packets

(* --- one session, stage by stage --------------------------------------- *)

(* The machine's stages in its documented order: three [`Setup] steps
   (session start, transmit, decode/playback setup), one step per
   frame, then finalisation. *)
let stage_name ~setup_steps = function
  | `Setup -> (
    match setup_steps with
    | 0 -> "streaming.session.start"
    | 1 -> "streaming.session.transmit"
    | _ -> "streaming.session.decode")
  | `Frame _ -> "streaming.session.frame"
  | `Finalize -> "streaming.session.finalize"
  | `Complete -> "streaming.session.done"

let observed subj f =
  if subj.observed then fst (W.with_session_obs ~rules:subj.rules f) else f ()

let replay_session subj ~sid ?prepared config clip =
  in_session sid (fun () ->
      with_span "session" (fun () ->
          let prepared =
            match prepared with
            | Some p -> p
            | None -> prepare_layers config clip
          in
          observed subj (fun () ->
              let m = Streaming.Session.create ~prepared config clip in
              let rec go setup_steps =
                let progress = Streaming.Session.progress m in
                match
                  with_span (stage_name ~setup_steps progress) (fun () ->
                      Streaming.Session.step m)
                with
                | `Done -> ()
                | `Running ->
                  go (if progress = `Setup then setup_steps + 1 else setup_steps)
              in
              go 0;
              match Streaming.Session.result m with
              | Some r -> r
              | None -> Error "machine did not finish")))

(* --- kernel probes ------------------------------------------------------ *)

(* Runs [f] until [min_s] host seconds have passed; returns
   (repetitions, seconds, minor words). *)
let repeat_for ~min_s f =
  let n = ref 0 in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  while !n = 0 || seconds_since t0 < min_s do
    f ();
    incr n
  done;
  (!n, seconds_since t0, Gc.minor_words () -. w0)

(* Top-left corners of the 8x8 blocks wholly inside a plane. *)
let blocks (p : Codec.Plane.t) =
  let acc = ref [] in
  let y = ref 0 in
  while !y + 8 <= p.height do
    let x = ref 0 in
    while !x + 8 <= p.width do
      acc := (!x, !y) :: !acc;
      x := !x + 8
    done;
    y := !y + 8
  done;
  List.rev !acc

let kernels subj =
  (* Consecutive frame pairs (0, 1) of every clip. *)
  let pairs =
    Array.to_list subj.clips
    |> List.filter (fun (c : Video.Clip.t) -> c.frame_count >= 2)
    |> List.map (fun (c : Video.Clip.t) -> (c.render 0, c.render 1))
  in
  let rasters = List.concat_map (fun (a, b) -> [ a; b ]) pairs in
  let n_frames = List.length rasters in
  let rgb =
    with_span "codec.kernel.rgb_to_ycbcr" (fun () ->
        repeat_for ~min_s:0.3 (fun () ->
            List.iter (fun r -> ignore (Codec.Plane.of_raster r)) rasters))
  in
  (* (reference luma, current luma, the current frame's blocks) *)
  let lumas =
    List.map
      (fun (a, b) ->
        let current = (Codec.Plane.of_raster b).Codec.Plane.y in
        ((Codec.Plane.of_raster a).Codec.Plane.y, current, blocks current))
      pairs
  in
  let n_blocks =
    List.fold_left (fun acc (_, _, bs) -> acc + List.length bs) 0 lumas
  in
  let motion =
    with_span "codec.kernel.motion_search" (fun () ->
        repeat_for ~min_s:0.5 (fun () ->
            List.iter
              (fun (reference, current, bs) ->
                List.iter
                  (fun (x, y) ->
                    ignore (Codec.Motion.search ~range:7 ~current ~reference ~x ~y ()))
                  bs)
              lumas))
  in
  let samples =
    List.concat_map
      (fun (_, current, bs) ->
        List.map (fun (x, y) -> Codec.Motion.extract_block current ~x ~y) bs)
      lumas
  in
  let dct =
    with_span "codec.kernel.dct" (fun () ->
        repeat_for ~min_s:0.3 (fun () ->
            List.iter
              (fun b -> ignore (Codec.Dct.inverse (Codec.Dct.forward b)))
              samples))
  in
  let q = Codec.Quant.make ~qp:8 in
  let levels =
    List.map
      (fun b -> Codec.Quant.quantise q Codec.Quant.Luma (Codec.Dct.forward b))
      samples
  in
  let entropy =
    with_span "codec.kernel.entropy" (fun () ->
        repeat_for ~min_s:0.3 (fun () ->
            let w = Codec.Bitio.Writer.create () in
            List.iter (Codec.Coeff.write_block w) levels))
  in
  (* Time and allocation per unit: [units] frames or blocks per
     repetition of the probe. *)
  let emit name ~units ~per (reps, s, w) =
    let n = reps * units in
    report (name ^ ".us_per_" ^ per) ~unit_:"us" ~samples:n
      (s *. 1e6 /. float_of_int n);
    report (name ^ ".alloc_kw_per_" ^ per) ~unit_:"kword" ~samples:n
      (w /. 1e3 /. float_of_int n)
  in
  emit "codec.kernel.rgb_to_ycbcr" ~units:n_frames ~per:"frame" rgb;
  emit "codec.kernel.motion_search" ~units:n_blocks ~per:"block" motion;
  emit "codec.kernel.dct" ~units:n_blocks ~per:"block" dct;
  emit "codec.kernel.entropy" ~units:n_blocks ~per:"block" entropy

(* --- server cache probe ------------------------------------------------- *)

let server_probe subj =
  let session =
    {
      Streaming.Negotiation.device = subj.config.device;
      quality = subj.config.quality;
      mapping = subj.config.mapping;
    }
  in
  let hits_per_clip = 200 in
  let misses = ref [] and hits = ref [] in
  Array.iter
    (fun (clip : Video.Clip.t) ->
      let server = Streaming.Server.create () in
      Streaming.Server.add_clip server clip;
      let prepare () =
        Streaming.Server.prepare server ~name:clip.Video.Clip.name ~session
      in
      let r, miss_s = timed (fun () -> with_span "streaming.server.prepare_miss" prepare) in
      check "server: prepare succeeds" (Result.is_ok r);
      misses := miss_s :: !misses;
      let (), hit_s =
        timed (fun () ->
            with_span "streaming.server.prepare_hit" (fun () ->
                for _ = 1 to hits_per_clip do
                  ignore (prepare ())
                done))
      in
      hits := (hit_s /. float_of_int hits_per_clip) :: !hits;
      check "server: one miss, then hits"
        (Streaming.Server.cache_stats server = (hits_per_clip, 1)))
    subj.clips;
  report "streaming.server.prepare_miss.ms" ~unit_:"ms"
    ~samples:(List.length !misses) (1000. *. mean !misses);
  report "streaming.server.prepare_hit.us" ~unit_:"us"
    ~samples:(hits_per_clip * List.length !hits) (1e6 *. mean !hits)

(* --- fleet probe -------------------------------------------------------- *)

let fleet_probe subj =
  let config, load = subj.fleet in
  let catalog = Array.length subj.clips in
  let n, plan_s, _ =
    with_span "fleet.load.plan" (fun () ->
        repeat_for ~min_s:0.2 (fun () -> ignore (Fleet.Load.plan load ~catalog)))
  in
  report "fleet.load.plan.ms" ~unit_:"ms" ~samples:n (1000. *. plan_s /. float_of_int n);
  let run ?pool () =
    Fleet.Scheduler.run ?pool config ~session_config:subj.config ~clips:subj.clips
      ~load
  in
  let r, run_s = timed (fun () -> with_span "fleet.scheduler.run" (fun () -> run ())) in
  let r2 = Par.Pool.with_pool ~domains:2 (fun pool -> run ~pool ()) in
  check "fleet: journal byte-identical at 1 and 2 domains"
    (String.equal (Fleet.Scheduler.journal r) (Fleet.Scheduler.journal r2));
  check "fleet: per-shard accounting balances" (W.Fleet_flash.accounting_balances r);
  check "fleet: journal verifies clean"
    (Check.Artifact.check_journal ~file:"fleet.journal" (Fleet.Scheduler.journal r)
    = []);
  operations ~attempted:r.sessions ~failed:r.failed;
  let shards = Array.to_list r.shard_reports in
  let sum f = List.fold_left (fun a s -> a + f s) 0 shards in
  let maxi f = List.fold_left (fun a s -> max a (f s)) 0 shards in
  let assigned (s : Fleet.Scheduler.shard_report) = s.assigned in
  let shed (s : Fleet.Scheduler.shard_report) = s.shed in
  report "fleet.scheduler.us_per_tick" ~unit_:"us" ~samples:r.ticks
    (1e6 *. run_s /. float_of_int r.ticks);
  report "fleet.ticks_per_session" ~unit_:"count" ~samples:r.sessions
    (float_of_int r.ticks /. float_of_int r.sessions);
  report "fleet.shard.load_max_over_mean" ~unit_:"ratio" ~samples:(List.length shards)
    (float_of_int (maxi assigned)
    /. (float_of_int (sum assigned) /. float_of_int (List.length shards)));
  report "fleet.shard.shed_max_share" ~unit_:"ratio" ~samples:r.shed
    (if r.shed = 0 then 0. else float_of_int (maxi shed) /. float_of_int r.shed);
  let hits = sum (fun s -> s.cache_hits) and misses = sum (fun s -> s.cache_misses) in
  report "fleet.cache.hits" ~unit_:"count" ~samples:1 (float_of_int hits);
  report "fleet.cache.misses" ~unit_:"count" ~samples:1 (float_of_int misses);
  report "fleet.cache.hit_ratio" ~unit_:"ratio" ~samples:(hits + misses)
    (if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses))

(* --- observability probe ------------------------------------------------ *)

(* The replayed sessions with the program's obs off and on, alternating
   session by session so host drift hits both sides alike. *)
let obs_probe subj warm =
  let off = ref [] and on = ref [] and events = ref [] and bytes = ref 0 in
  let n = Array.length subj.replay in
  Array.iter
    (fun (ci, config) ->
      let clip = subj.clips.(ci) in
      let _, s_off, r_off = W.play ~prepared:warm.(ci) config clip in
      off := raw_s s_off :: !off;
      let (_, s_on, r_on), journal =
        W.with_session_obs ~rules:subj.rules (fun () ->
            W.play ~prepared:warm.(ci) config clip)
      in
      on := raw_s s_on :: !on;
      check "obs: report identical with obs off and on"
        (match (r_off, r_on) with
        | Ok a, Ok b -> W.same_report a b
        | _ -> false);
      bytes := !bytes + Obs.Journal.size_bytes journal;
      events := List.rev_append (Obs.Journal.events journal) !events)
    subj.replay;
  let events = List.rev !events in
  let n_events = List.length events in
  report "obs.overhead_pct" ~unit_:"%" ~samples:n
    (100. *. ((median !on /. median !off) -. 1.));
  report "obs.journal.events_per_session" ~unit_:"count" ~samples:n
    (float_of_int n_events /. float_of_int n);
  report "obs.journal.bytes_per_session" ~unit_:"B" ~samples:n
    (float_of_int !bytes /. float_of_int n);
  let reps, s, _ =
    repeat_for ~min_s:0.2 (fun () -> ignore (Obs.Journal.encode events))
  in
  report "obs.journal.encode.us_per_event" ~unit_:"us" ~samples:(reps * n_events)
    (1e6 *. s /. float_of_int (reps * max 1 n_events))

(* --- the run ------------------------------------------------------------ *)

let max_pairs = 10

let run ~workload ~seed ~seconds ~trace_out =
  let subj = subject ~workload ~seed in
  (* The warm workloads' warm tables, rebuilt here layer by layer under
     spans: their codec and annotation layers run nowhere else in the
     traced run. *)
  tracing := true;
  let warm =
    if subj.cold then [||]
    else
      Array.map
        (fun clip -> with_span "setup.prepare" (fun () -> prepare_layers subj.config clip))
        subj.clips
  in
  tracing := false;
  (* Warm artifacts for the obs probe and the exact encode sizes; on
     the cold workload they come from [prepare_input] itself. *)
  let prepared =
    if subj.cold then Array.map (Streaming.Session.prepare_input subj.config) subj.clips
    else warm
  in
  check "replay: layered prepare = Session.prepare_input"
    (same_prepared
       (if subj.cold then prepare_layers subj.config subj.clips.(0) else warm.(0))
       (if subj.cold then prepared.(0)
        else Streaming.Session.prepare_input subj.config subj.clips.(0)));
  (* Replay passes, untraced and traced in turn. *)
  let frames = [| 0; 0 |] and secs = [| 0.; 0. |] in
  let first_reports = ref [] in
  let t_start = now_ns () in
  let pairs = ref 0 in
  while !pairs = 0 || (!pairs < max_pairs && seconds_since t_start < seconds /. 2.) do
    List.iter
      (fun traced ->
        tracing := traced;
        let side = if traced then 1 else 0 in
        let (), s =
          timed (fun () ->
              Array.iteri
                (fun k (ci, config) ->
                  let sid = (!pairs * Array.length subj.replay) + k in
                  let prepared = if subj.cold then None else Some warm.(ci) in
                  let r = replay_session subj ~sid ?prepared config subj.clips.(ci) in
                  operation (Result.is_ok r);
                  (match r with
                  | Ok rep -> frames.(side) <- frames.(side) + rep.Streaming.Session.frames
                  | Error _ -> ());
                  if traced && !pairs = 0 then first_reports := r :: !first_reports)
                subj.replay)
        in
        secs.(side) <- secs.(side) +. s)
      [ false; true ];
    incr pairs
  done;
  tracing := false;
  let first_reports = List.rev !first_reports in
  (let ci, config = subj.replay.(0) in
   check "replay: replayed report = Session.run"
     (match (List.hd first_reports, Streaming.Session.run config subj.clips.(ci)) with
     | Ok a, Ok b -> W.same_report a b
     | _ -> false));
  (* Probes, traced. *)
  tracing := true;
  kernels subj;
  server_probe subj;
  fleet_probe subj;
  tracing := false;
  obs_probe subj prepared;
  (* Per-layer metrics from the spans. *)
  let totals = span_totals () in
  let stat name =
    match List.assoc_opt name totals with Some t -> t | None -> (0, 0., 0., 0.)
  in
  let frames_of_clips = Array.fold_left (fun a (c : Video.Clip.t) -> a + c.frame_count) 0 subj.clips in
  (* Frames the server-side layers processed: one catalog pass per
     warm build, one clip per replayed cold session. *)
  let layer_frames =
    if subj.cold then
      Array.fold_left (fun a (ci, _) -> a + subj.clips.(ci).frame_count) 0 subj.replay
      * (!pairs)
    else frames_of_clips
  in
  let per_frame name ~scale =
    let _, tot, _, w = stat name in
    (tot /. 1e9 *. scale /. float_of_int layer_frames, w /. 1e3 /. float_of_int layer_frames)
  in
  let per_call name ~scale =
    let n, tot, _, w = stat name in
    (tot /. 1e9 *. scale /. float_of_int (max 1 n), w /. 1e3 /. float_of_int (max 1 n), n)
  in
  let t, _ = per_frame "video.render" ~scale:1e3 in
  report "video.render.ms_per_frame" ~unit_:"ms" ~samples:layer_frames t;
  let t, _ = per_frame "annot.profile" ~scale:1e3 in
  report "annot.profile.ms_per_frame" ~unit_:"ms" ~samples:layer_frames t;
  let t, _, n = per_call "annot.annotate" ~scale:1e3 in
  report "annot.annotate.ms_per_session" ~unit_:"ms" ~samples:n t;
  let t, w = per_frame "codec.encode" ~scale:1e3 in
  report "codec.encode.ms_per_frame" ~unit_:"ms" ~samples:layer_frames t;
  report "codec.encode.alloc_kw_per_frame" ~unit_:"kword" ~samples:layer_frames w;
  (* Exact: bytes of the catalog's encodes. *)
  let encoded =
    Array.map (fun (p : Streaming.Session.prepared_input) -> p.encoded) prepared
  in
  report "codec.encode.bytes_per_frame" ~unit_:"B" ~samples:frames_of_clips
    (float_of_int (Array.fold_left (fun a e -> a + Codec.Encoder.total_bytes e) 0 encoded)
    /. float_of_int frames_of_clips);
  let t, w = per_frame "codec.decode" ~scale:1e3 in
  report "codec.decode.ms_per_frame" ~unit_:"ms" ~samples:layer_frames t;
  report "codec.decode.alloc_kw_per_frame" ~unit_:"kword" ~samples:layer_frames w;
  let t, _, n = per_call "streaming.session.transmit" ~scale:1e6 in
  report "streaming.session.transmit.us_per_session" ~unit_:"us" ~samples:n t;
  let t, w, n = per_call "streaming.session.decode" ~scale:1e3 in
  report "streaming.session.decode.ms_per_session" ~unit_:"ms" ~samples:n t;
  report "streaming.session.decode.alloc_kw_per_session" ~unit_:"kword" ~samples:n w;
  let t, w, n = per_call "streaming.session.frame" ~scale:1e6 in
  report "streaming.session.frame.us_per_frame" ~unit_:"us" ~samples:n t;
  report "streaming.session.frame.alloc_kw_per_frame" ~unit_:"kword" ~samples:n w;
  let t, w, n = per_call "streaming.session.finalize" ~scale:1e3 in
  report "streaming.session.finalize.ms_per_session" ~unit_:"ms" ~samples:n t;
  report "streaming.session.finalize.alloc_kw_per_session" ~unit_:"kword" ~samples:n w;
  (* Exact: the first traced pass's session reports. *)
  let oks = List.filter_map Result.to_option first_reports in
  let per_session f =
    float_of_int (List.fold_left (fun a r -> a + f r) 0 oks)
    /. float_of_int (max 1 (List.length oks))
  in
  let n_ok = List.length oks in
  report "streaming.retransmissions_per_session" ~unit_:"count" ~samples:n_ok
    (per_session (fun r -> r.Streaming.Session.retransmissions));
  report "streaming.concealed_frames_per_session" ~unit_:"count" ~samples:n_ok
    (per_session (fun r -> r.Streaming.Session.concealed_frames));
  report "streaming.degraded_scenes_per_session" ~unit_:"count" ~samples:n_ok
    (per_session (fun r -> r.Streaming.Session.degraded_scenes));
  (* Tracing overhead on the same replay. *)
  let fps side = float_of_int frames.(side) /. secs.(side) in
  Printf.printf "  replay: %d pairs, untraced %.1f frames/s, traced %.1f frames/s\n"
    !pairs (fps 0) (fps 1);
  report "trace.overhead_frames_per_s" ~unit_:"1/s" ~samples:frames.(1)
    (fps 1 -. fps 0);
  (* Self time of every span, over all traced work. *)
  Printf.printf "\n  %-36s %8s %12s %12s %12s\n" "span" "count" "total_ms" "self_ms"
    "alloc_kw";
  List.iter
    (fun (name, (n, tot, self, w)) ->
      Printf.printf "  %-36s %8d %12.3f %12.3f %12.1f\n" name n (tot /. 1e6)
        (self /. 1e6) (w /. 1e3))
    totals;
  write_chrome_trace ~path:trace_out;
  Printf.printf "  wrote %s (%d spans)\n%!" trace_out (List.length !spans)

type config = {
  device : Display.Device.t;
  quality : Annotation.Quality_level.t;
  mapping : Negotiation.mapping_site;
  link : Netsim.t;
  gop : int;
  ramp_step : int option;
  seed : int;
  fault : Fault.t option;
  nack_budget_s : float;
  resilience : Resilience.Profile.t option;
  stale_track : Annotation.Track.t option;
}

let default_config ~device =
  {
    device;
    quality = Annotation.Quality_level.Loss_10;
    mapping = Negotiation.Server_side;
    link = Netsim.wlan_80211b;
    gop = 12;
    ramp_step = None;
    seed = 1;
    fault = None;
    nack_budget_s = 0.04;
    resilience = None;
    stale_track = None;
  }

type report = {
  config : config;
  frames : int;
  duration_s : float;
  video_bytes : int;
  annotation_bytes : int;
  annotations_survived : bool;
  video_mean_psnr : float;
  concealed_frames : int;
  backlight_savings : float;
  cpu_savings : float;
  radio_savings : float;
  device_savings : float;
  device_energy_mj : float;
  baseline_energy_mj : float;
  degraded_scenes : int;
  retransmissions : int;
  corrupt_records : int;
}

(* Whole-device energy: the per-frame backlight power (mW, one slot
   per frame), the DVFS CPU account, the radio account, and the
   constant components. The baseline uses register 255, full CPU speed
   and an always-on radio. *)
let device_energy ~config ~dt_s ~backlight_mw ~cpu_energy_mj ~radio_energy_mj =
  let d = config.device in
  let duration = dt_s *. float_of_int (Array.length backlight_mw) in
  let backlight =
    Array.fold_left (fun acc p -> acc +. (p *. dt_s)) 0. backlight_mw
  in
  let constant =
    (d.Display.Device.lcd_logic_power_mw +. d.Display.Device.base_power_mw) *. duration
  in
  backlight +. cpu_energy_mj +. radio_energy_mj +. constant

let obs_frame_latency =
  Obs.histogram ~help:"Simulated per-frame wire transfer time on the link"
    ~buckets:[| 1e-4; 5e-4; 1e-3; 5e-3; 1e-2; 5e-2; 0.1; 0.5 |]
    "streaming_frame_latency_seconds" []

(* Window series this module feeds, declared up front so the offline
   SLO checker knows them without running a session. *)
let s_deadline_miss = Obs.Monitor.declare_series "deadline_miss"
let s_backlight_switches = Obs.Monitor.declare_series "backlight_switches"
let s_power_cpu_mj = Obs.Monitor.declare_series "power_cpu_mj"
let s_power_radio_mj = Obs.Monitor.declare_series "power_radio_mj"
let s_power_device_total_mj = Obs.Monitor.declare_series "power_device_total_mj"

let s_records_corrupt =
  Obs.Monitor.declare_series "annot_records_corrupt_total"

let s_degraded_scenes = Obs.Monitor.declare_series "degraded_scenes_total"

let obs_forced_first_frame =
  Obs.counter
    ~help:"First video frames force-delivered despite the loss model"
    "forced_first_frame_deliveries_total" []

let span = Obs.Trace.with_span

(* A stale prepared track can stand in for a missing record only when
   its scene layout matches: same frame coverage, same entry grid.
   Scene boundaries come from profiling the clip — not from device or
   quality — so any earlier preparation of the same clip qualifies. *)
let stale_usable ~stale (p : Annotation.Encoding.partial) =
  match stale with
  | Some (st : Annotation.Track.t)
    when Array.length st.entries = Array.length p.records
         && st.total_frames = p.total_frames
         && Array.for_all2
              (fun (se : Annotation.Track.entry) -> function
                | Annotation.Encoding.Intact (e : Annotation.Track.entry) ->
                  se.first_frame = e.first_frame && se.frame_count = e.frame_count
                | Lost | Corrupt -> true)
              st.entries p.records ->
    Some st.entries
  | _ -> None

(* Rebuild a full annotation track from a partial decode by walking
   the degradation ladder: every surviving record keeps its scene, and
   every missing one resolves at the shallowest enabled rung — the
   stale track's entry for its scene, the level both intact neighbours
   agree on, or full backlight (register 255, no compensation), which
   risks no quality. A run of consecutive missing records fills as one
   entry whose rung the run's head picks; every record's rung is noted
   on the ladder, which journals the non-fresh ones. *)
let patch_track ?stale ?(t_s = 0.) ladder (p : Annotation.Encoding.partial) =
  let module D = Resilience.Degrade in
  let stale_entries =
    if D.enabled ladder D.Stale_cache then stale_usable ~stale p else None
  in
  let clamp_enabled = D.enabled ladder D.Neighbour_clamp in
  let n = Array.length p.records in
  let rec next_intact j =
    if j >= n then None
    else
      match p.records.(j) with
      | Annotation.Encoding.Intact e -> Some e
      | Lost | Corrupt -> next_intact (j + 1)
  in
  let out = ref [] and pos = ref 0 and prev = ref None in
  let degraded = ref 0 and run_step = ref D.Full_backlight in
  let emit (e : Annotation.Track.entry) =
    out := e :: !out;
    pos := e.first_frame + e.frame_count;
    prev := Some e
  in
  Array.iteri
    (fun i record ->
      match (record, stale_entries) with
      | Annotation.Encoding.Intact e, _ ->
        D.note ladder ~t_s ~scene:i D.Fresh;
        emit e
      | (Lost | Corrupt), Some st ->
        incr degraded;
        D.note ladder ~t_s ~scene:i D.Stale_cache;
        emit st.(i)
      | (Lost | Corrupt), None ->
        incr degraded;
        let next = next_intact (i + 1) in
        let until =
          match next with
          | Some e -> e.Annotation.Track.first_frame
          | None -> p.total_frames
        in
        if until > !pos then begin
          let fill ~register ~compensation ~effective_max =
            {
              Annotation.Track.first_frame = !pos;
              frame_count = until - !pos;
              register;
              compensation;
              effective_max;
            }
          in
          let step, entry =
            match (!prev, next) with
            | Some (a : Annotation.Track.entry), Some b
              when clamp_enabled && a.register = b.register
                   && a.effective_max = b.effective_max ->
              ( D.Neighbour_clamp,
                fill ~register:a.register
                  ~compensation:(Float.max a.compensation b.compensation)
                  ~effective_max:a.effective_max )
            | _ ->
              (D.Full_backlight, fill ~register:255 ~compensation:1. ~effective_max:255)
          in
          run_step := step;
          out := entry :: !out;
          pos := until
        end;
        D.note ladder ~t_s ~scene:i !run_step)
    p.records;
  let track =
    Annotation.Track.make ~clip_name:p.clip_name ~device_name:p.device_name
      ~quality:p.quality ~fps:p.fps ~total_frames:p.total_frames
      (Array.of_list (List.rev !out))
  in
  (track, !degraded)

(* Journal fields ride as non-negative varints; a non-finite or
   negative reading (an fps-0 clip record, a negative stage budget)
   must clamp instead of flowing through [int_of_float] as garbage —
   an unchecked negative would make the encoder raise mid-session.
   Finite positive readings are untouched, so valid sessions journal
   byte-identically. *)
let journal_clamp f =
  if Float.is_finite f && f > 0. then
    int_of_float (Float.round (Float.min f 1e15))
  else 0

(* --- poll-able session machine ------------------------------------------ *)

(* The server-side artifacts of a session: everything computed before
   the transmission seed matters, so a prepared-stream cache can share
   one value between every session playing the same clip. *)
type prepared_input = {
  track : Annotation.Track.t;
  annotation_payload : string;
  protected : Fec.protected_payload;
  encoded : Codec.Encoder.encoded;
  clean : Codec.Decoder.decoded option;
}

type transmitted = {
  survived : bool;
  client_track : Annotation.Track.t;
  t_degraded : int;
  t_resent : int;
  t_corrupt : int;
}

type playing = {
  registers : int array;
  dvfs : Dvfs_playback.report;
  radio : Radio.report;
  frame_bytes : int array;
  scene_start : bool array;
  mutable scene_idx : int;
      (* owned_by: the machine's driving caller, like m_stage below;
         a [playing] record lives inside one machine's stage and is
         never shared across domains *)
  received : Transport.received;
}

type stage =
  | Starting
  | Prepared of prepared_input
  | Transmitted of prepared_input * transmitted
  | Playing of prepared_input * transmitted * playing * int
  | Finalizing of prepared_input * transmitted * playing
  | Finished of (report, string) result

type machine = {
  m_config : config;
  m_clip : Video.Clip.t;
  m_fault : Fault.t;
  m_frames : int;
  m_fps : float;
  m_dt_s : float;
  m_injected : prepared_input option;
  mutable m_stage : stage;  (* owned_by: the driving caller; machines are not shared across domains *)
}

type progress = [ `Setup | `Frame of int | `Finalize | `Complete ]

let create ?prepared config clip =
  let frames = clip.Video.Clip.frame_count in
  if frames = 0 then invalid_arg "Session.run: empty clip";
  let fps = clip.Video.Clip.fps in
  {
    m_config = config;
    m_clip = clip;
    m_fault = Option.value config.fault ~default:Fault.none;
    m_frames = frames;
    m_fps = fps;
    m_dt_s = 1. /. fps;
    m_injected = prepared;
    m_stage = Starting;
  }

let progress m =
  match m.m_stage with
  | Starting | Prepared _ | Transmitted _ -> `Setup
  | Playing (_, _, _, i) -> `Frame i
  | Finalizing _ -> `Finalize
  | Finished _ -> `Complete

let result m = match m.m_stage with Finished r -> Some r | _ -> None

let frames m = m.m_frames

let dt_s m = m.m_dt_s

(* The server-side pipeline: encode the video, profiling each frame as
   the encoder renders it, annotate for the mapping site, encode and
   FEC-protect the track. Every frame is rendered once, and nothing is
   decoded: the client scores its own pictures (Transport.receive).
   [traced] runs the stages under the session spans; a cache fill runs
   untraced, because it is the cache owner's work, not any one
   session's. *)
let prepare ~traced config clip =
  let span name f = if traced then span name f else f () in
  let tapped, profiled = Annotation.Annotator.histogram_tap clip in
  let encoded =
    span "session.encode" @@ fun () ->
    Codec.Encoder.encode_clip
      ~params:{ Codec.Stream.default_params with gop = config.gop }
      tapped
  in
  let track, annotation_payload, protected =
    span "session.annotate" @@ fun () ->
    let track =
      Negotiation.annotate
        {
          Negotiation.device = config.device;
          quality = config.quality;
          mapping = config.mapping;
        }
        (profiled ())
    in
    let annotation_payload = Annotation.Encoding.encode track in
    ( track,
      annotation_payload,
      Fec.protect ~packet_size:24 ~group_size:3 annotation_payload )
  in
  { track; annotation_payload; protected; encoded; clean = None }

let prepare_input config clip = prepare ~traced:false config clip

(* Session start: journal, then the server-side stages — or the
   injected warm artifacts. *)
let step_start m =
  let config = m.m_config and clip = m.m_clip in
  Obs.Journal.record ~t_s:0.
    (Obs.Journal.Session_start
       {
         clip = clip.Video.Clip.name;
         device = config.device.Display.Device.name;
         quality = Annotation.Quality_level.label config.quality;
         frames = m.m_frames;
         fps_milli = journal_clamp (m.m_fps *. 1000.);
       });
  m.m_stage <-
    Prepared
      (match m.m_injected with
      | Some p -> p
      | None -> prepare ~traced:true config clip)

(* The wireless hop for the annotation side channel: the packets cross
   the channel, the NACK loop re-sends what it can within its budget,
   FEC repairs what it can, and every record that still failed walks
   the degradation ladder. *)
let step_transmit m (prep : prepared_input) =
  let config = m.m_config and fault = m.m_fault in
  let track = prep.track and protected = prep.protected in
  (* Without a resilience profile there is no retry policy, breaker or
     watchdog, and the ladder falls from fresh straight to full
     backlight. *)
  let profile =
    match config.resilience with
    | Some p -> p
    | None ->
      {
        Resilience.Profile.empty with
        ladder = Resilience.Degrade.[ Fresh; Full_backlight ];
      }
  in
  let trans =
    span "session.transmit" @@ fun () ->
    let ladder =
      Resilience.Degrade.create
        ?steps:
          (match profile.Resilience.Profile.ladder with
          | [] -> None
          | l -> Some l)
        ()
    in
    let breaker =
      Option.map
        (fun bc -> Resilience.Breaker.create ~config:bc ~name:"nack" ())
        profile.Resilience.Profile.breaker
    in
    let arrival = Fault.apply fault ~seed:config.seed protected.Fec.packets in
    let arrival, nack =
      if config.nack_budget_s > 0. then
        Transport.nack_retransmit ?policy:profile.Resilience.Profile.retry
          ?breaker ~fault ~link:config.link ~budget_s:config.nack_budget_s
          ~seed:(config.seed + 31) ~packets:protected.Fec.packets arrival
      else (arrival, Transport.no_nack)
    in
    let recovery = Fec.recover_detail protected ~present:arrival in
    let journal_t_s = nack.Transport.nack_time_s in
    let transmitted survived client_track t_degraded t_corrupt =
      {
        survived;
        client_track;
        t_degraded;
        t_resent = nack.Transport.packets_retransmitted;
        t_corrupt;
      }
    in
    (* Stage-deadline watchdog: annotations that arrive after the
       transmit deadline are as good as lost — trip the ladder
       instead of pretending they were on time. *)
    let watchdog_tripped =
      match profile.Resilience.Profile.stage_deadline_s with
      | Some d when nack.Transport.nack_time_s > d ->
        Obs.Journal.record ~t_s:journal_t_s
          (Obs.Journal.Watchdog_trip
             {
               stage = "transmit";
               budget_us = journal_clamp (d *. 1e6);
               over_us = journal_clamp ((nack.Transport.nack_time_s -. d) *. 1e6);
             });
        true
      | _ -> false
    in
    let mapped t =
      match config.mapping with
      | Negotiation.Server_side -> t
      | Negotiation.Client_side -> Annotation.Neutral.map_to_device config.device t
    in
    (* The whole track fell back (header unusable, nothing intact, or
       the watchdog tripped): on the stale track when the ladder offers
       that rung and one was given, at full backlight otherwise. *)
    let whole_track_fallback ~degraded ~corrupt =
      match config.stale_track with
      | Some st when Resilience.Degrade.enabled ladder Resilience.Degrade.Stale_cache ->
        Resilience.Degrade.note ladder ~t_s:journal_t_s ~scene:(-1)
          Resilience.Degrade.Stale_cache;
        transmitted true (mapped st) (Array.length st.Annotation.Track.entries) corrupt
      | _ ->
        Resilience.Degrade.note ladder ~t_s:journal_t_s ~scene:(-1)
          Resilience.Degrade.Full_backlight;
        transmitted false track degraded corrupt
    in
    Obs.Journal.record ~t_s:journal_t_s
      (Obs.Journal.Fec_outcome
         {
           failed_groups = List.length recovery.Fec.failed_groups;
           repaired_packets = recovery.Fec.repaired_packets;
         });
    (* One Degradation event per record the decoder did not find intact,
       with its classification as the trigger. The event names the
       ladder's floor as its policy: the rung each scene actually took
       is journaled by its Ladder_step. *)
    let degrade index trigger =
      Obs.Journal.record ~t_s:journal_t_s
        (Obs.Journal.Degradation { index; trigger; policy = "full_backlight" })
    in
    let all_scenes = Array.length track.Annotation.Track.entries in
    if watchdog_tripped then whole_track_fallback ~degraded:all_scenes ~corrupt:0
    else
      match
        Annotation.Encoding.decode_partial ~byte_ok:recovery.Fec.byte_ok
          recovery.Fec.payload
      with
      | Error _ ->
        (* Header gone: nothing placeable survived. *)
        degrade (-1) Obs.Journal.Header_lost;
        whole_track_fallback ~degraded:all_scenes ~corrupt:0
      | Ok partial ->
        let records = partial.Annotation.Encoding.records in
        let corrupt = partial.Annotation.Encoding.corrupt_records in
        Array.iteri
          (fun i -> function
            | Annotation.Encoding.Intact _ -> ()
            | Lost -> degrade i Obs.Journal.Record_lost
            | Corrupt -> degrade i Obs.Journal.Record_corrupt)
          records;
        if corrupt + partial.Annotation.Encoding.missing_records = Array.length records
        then whole_track_fallback ~degraded:(Array.length records) ~corrupt
        else
          let patched, degraded =
            patch_track ?stale:config.stale_track ~t_s:journal_t_s ladder partial
          in
          transmitted true (mapped patched) degraded corrupt
  in
  m.m_stage <- Transmitted (prep, trans)

(* Packetize the video, run it through the lossy channel, conceal the
   losses, and take the client playback decisions (backlight registers,
   DVFS schedule, radio bursts) that the per-frame replay then walks. *)
let step_decode m (prep : prepared_input) (trans : transmitted) =
  let config = m.m_config and frames = m.m_frames and fps = m.m_fps in
  let encoded = prep.encoded in
  let setup =
    Result.bind (Transport.packetize encoded) (fun packetized ->
        let lost = Fault.loss_mask m.m_fault ~seed:(config.seed + 1) ~n:frames in
        (* The first frame is exempt from loss: with nothing decoded yet
           there is no picture to conceal with, so a real player would
           stall on ARQ until the stream starts. We model that as a
           forced delivery and count it instead of failing the run. *)
        if lost.(0) then Obs.Metrics.Counter.incr obs_forced_first_frame;
        lost.(0) <- false;
        Result.map_error
          (fun e -> "transport: " ^ e)
          (Transport.receive packetized ~lost))
  in
  match setup with
  | Error e -> m.m_stage <- Finished (Error e)
  | Ok received ->
    (* Client playback decisions. *)
    let registers =
      if trans.survived then begin
        let base = Annotation.Track.register_track trans.client_track in
        match config.ramp_step with
        | None -> base
        | Some max_dim_step -> Ramp.slew_limit ~max_dim_step base
      end
      else
        (* Quality-safe fallback: no annotations, no dimming. *)
        Array.make frames 255
    in
    let cycles = Dvfs_playback.decode_cycles encoded in
    let dvfs = Dvfs_playback.run ~fps cycles Dvfs_playback.Annotated_workload in
    Obs.Journal.record ~t_s:0.
      (Obs.Journal.Dvfs_choice
         {
           policy = Dvfs_playback.policy_name dvfs.Dvfs_playback.policy;
           mean_mhz = journal_clamp dvfs.Dvfs_playback.mean_frequency_mhz;
           misses = dvfs.Dvfs_playback.deadline_misses;
         });
    let frame_bytes =
      Array.map
        (fun bits -> (bits + 7) / 8)
        encoded.Codec.Encoder.frame_sizes_bits
    in
    let radio =
      Radio.run ~link:config.link ~fps ~gop:config.gop ~frame_bytes
        Radio.Annotated_bursts
    in
    let scene_start = Array.make frames false in
    Array.iter
      (fun (e : Annotation.Track.entry) ->
        if e.first_frame < frames then scene_start.(e.first_frame) <- true)
      trans.client_track.Annotation.Track.entries;
    m.m_stage <-
      Playing
        ( prep,
          trans,
          {
            registers;
            dvfs;
            radio;
            frame_bytes;
            scene_start;
            scene_idx = 0;
            received;
          },
          0 )

(* Replay one delivered frame on the simulated clock: latency sample,
   deadline miss (transfer longer than a frame period) and backlight
   switch feed the health monitor, whose windows close every simulated
   second and at every scene cut (annotation-entry boundary). *)
let step_frame m (prep : prepared_input) (trans : transmitted)
    (play : playing) i =
  let config = m.m_config and frames = m.m_frames and dt_s = m.m_dt_s in
  if Obs.enabled () then begin
    let registers = play.registers in
    let bytes = play.frame_bytes.(i) in
    let start_s = float_of_int i *. dt_s in
    if i > 0 && play.scene_start.(i) then begin
      Obs.Monitor.scene_cut ~now_s:start_s;
      play.scene_idx <- play.scene_idx + 1;
      Obs.Journal.record ~t_s:start_s
        (Obs.Journal.Scene_cut { scene = play.scene_idx; frame = i })
    end;
    let transfer = Netsim.transfer_time_s config.link bytes in
    let transfer =
      (transfer
      /. Fault.bandwidth_factor m.m_fault
           ~progress:(float_of_int i /. float_of_int frames))
      +. Fault.delay_s m.m_fault ~seed:(config.seed + 17) ~index:i
    in
    Obs.Metrics.Histogram.observe obs_frame_latency transfer;
    Obs.Monitor.count Obs.Monitor.frames_series;
    if transfer > dt_s then begin
      Obs.Monitor.count s_deadline_miss;
      Obs.Journal.record ~t_s:start_s
        (Obs.Journal.Deadline_miss
           { frame = i; over_us = journal_clamp ((transfer -. dt_s) *. 1e6) })
    end;
    if i > 0 && registers.(i) <> registers.(i - 1) then begin
      Obs.Monitor.count s_backlight_switches;
      Obs.Journal.record ~t_s:start_s
        (Obs.Journal.Backlight_switch
           {
             frame = i;
             from_register = registers.(i - 1);
             to_register = registers.(i);
           })
    end;
    Obs.Monitor.advance ~now_s:(start_s +. dt_s)
  end;
  m.m_stage <-
    (if i + 1 < frames then Playing (prep, trans, play, i + 1)
     else Finalizing (prep, trans, play))

(* Energy accounting, profiler attribution, the session-end journal
   entry and the report — the tail of the playback span. *)
let step_finalize m (prep : prepared_input) (trans : transmitted)
    (play : playing) =
  let config = m.m_config and frames = m.m_frames and dt_s = m.m_dt_s in
  let dvfs = play.dvfs and radio = play.radio in
  let report =
    span "session.playback" @@ fun () ->
    let d = config.device in
    (* The backlight power each frame played at: the one array the
       device account, the profiler and the backlight savings fold. *)
    let backlight_mw =
      Array.map
        (fun register -> Power.Model.backlight_power_mw d ~on:true ~register)
        play.registers
    in
    let full_mw = Power.Model.backlight_power_mw d ~on:true ~register:255 in
    let optimised =
      device_energy ~config ~dt_s ~backlight_mw
        ~cpu_energy_mj:dvfs.Dvfs_playback.cpu_energy_mj
        ~radio_energy_mj:radio.Radio.radio_energy_mj
    in
    let baseline =
      device_energy ~config ~dt_s ~backlight_mw:(Array.make frames full_mw)
        ~cpu_energy_mj:dvfs.Dvfs_playback.baseline_energy_mj
        ~radio_energy_mj:radio.Radio.baseline_energy_mj
    in
    if Obs.enabled () then begin
      Obs.Monitor.gauge s_power_cpu_mj dvfs.Dvfs_playback.cpu_energy_mj;
      Obs.Monitor.gauge s_power_radio_mj radio.Radio.radio_energy_mj;
      Obs.Monitor.gauge s_power_device_total_mj optimised;
      Obs.Monitor.gauge s_records_corrupt (float_of_int trans.t_corrupt);
      Obs.Monitor.gauge s_degraded_scenes (float_of_int trans.t_degraded)
    end;
    if Obs.enabled () && Obs.Profile.installed () then begin
      (* Attribute the delivered session's joules scene by scene to
         the energy profiler: backlight at the register actually
         played (post-patch, post-ramp), the constant display
         electronics over each scene's duration, and the
         session-level CPU / radio accounts. Component sums reproduce
         [optimised] exactly (modulo float associativity), which the
         tests pin to 1e-9 J. Observational only — nothing below
         reads the profiler back. *)
      let constant_mw =
        d.Display.Device.lcd_logic_power_mw +. d.Display.Device.base_power_mw
      in
      let record_scene idx ~first ~count =
        let last = min frames (first + count) - 1 in
        if count > 0 && first < frames then begin
          let backlight = ref 0. in
          for i = first to last do
            backlight := !backlight +. (backlight_mw.(i) *. dt_s)
          done;
          let scene_s = float_of_int (last - first + 1) *. dt_s in
          Obs.Profile.record ~scene:idx ~component:"backlight" !backlight;
          Obs.Profile.record ~scene:idx ~component:"display"
            (constant_mw *. scene_s)
        end
      in
      let entries = trans.client_track.Annotation.Track.entries in
      if Array.length entries = 0 then record_scene 0 ~first:0 ~count:frames
      else
        Array.iteri
          (fun idx (e : Annotation.Track.entry) ->
            record_scene idx ~first:e.first_frame ~count:e.frame_count)
          entries;
      Obs.Profile.record ~component:"decode" dvfs.Dvfs_playback.cpu_energy_mj;
      Obs.Profile.record ~component:"radio" radio.Radio.radio_energy_mj
    end;
    let backlight_savings =
      let used = Array.fold_left ( +. ) 0. backlight_mw in
      let full = float_of_int frames *. full_mw in
      (full -. used) /. full
    in
    Obs.Journal.record
      ~t_s:(float_of_int frames *. dt_s)
      (Obs.Journal.Session_end
         {
           survived = trans.survived;
           degraded_scenes = trans.t_degraded;
           retransmissions = trans.t_resent;
           corrupt_records = trans.t_corrupt;
         });
    {
      config;
      frames;
      duration_s = float_of_int frames *. dt_s;
      video_bytes = Codec.Encoder.total_bytes prep.encoded;
      annotation_bytes = String.length prep.annotation_payload;
      annotations_survived = trans.survived;
      video_mean_psnr = Transport.mean_psnr play.received;
      concealed_frames = play.received.Transport.concealed;
      backlight_savings;
      cpu_savings = dvfs.Dvfs_playback.savings;
      radio_savings = radio.Radio.savings;
      device_savings = (baseline -. optimised) /. baseline;
      device_energy_mj = optimised;
      baseline_energy_mj = baseline;
      degraded_scenes = trans.t_degraded;
      retransmissions = trans.t_resent;
      corrupt_records = trans.t_corrupt;
    }
  in
  m.m_stage <- Finished (Ok report)

(* Advance the machine by one stage — one simulated frame once playing.
   [run] is exactly this loop, so driving a machine to [`Done] is
   indistinguishable from it. *)
let step m =
  (match m.m_stage with
  | Starting -> step_start m
  | Prepared prep -> step_transmit m prep
  | Transmitted (prep, trans) -> step_decode m prep trans
  | Playing (prep, trans, play, i) -> step_frame m prep trans play i
  | Finalizing (prep, trans, play) -> step_finalize m prep trans play
  | Finished _ -> ());
  match m.m_stage with Finished _ -> `Done | _ -> `Running

let run config clip =
  span "session.run" ~attrs:[ ("clip", clip.Video.Clip.name) ]
  @@ fun () ->
  let m = create config clip in
  let rec drive () = match step m with `Running -> drive () | `Done -> () in
  drive ();
  match result m with
  | Some r -> r
  | None -> Error "Session.run: machine did not finish"

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%d frames, %.1f s, video %d B, annotations %d B (%s)@,\
     video PSNR %.1f dB after %d concealments@,\
     savings: backlight %.1f%%, cpu %.1f%%, radio %.1f%% -> device %.1f%%@,\
     energy %.0f mJ vs %.0f mJ baseline@]"
    r.frames r.duration_s r.video_bytes r.annotation_bytes
    (if not r.annotations_survived then "LOST - full backlight fallback"
     else if r.degraded_scenes > 0 then "partially recovered"
     else "recovered")
    r.video_mean_psnr r.concealed_frames (100. *. r.backlight_savings)
    (100. *. r.cpu_savings) (100. *. r.radio_savings) (100. *. r.device_savings)
    r.device_energy_mj r.baseline_energy_mj;
  if r.degraded_scenes > 0 || r.retransmissions > 0 || r.corrupt_records > 0 then
    Format.fprintf ppf
      "@\nresilience: %d degraded scenes, %d retransmissions, %d corrupt records"
      r.degraded_scenes r.retransmissions r.corrupt_records

let pp_report_obs ppf r =
  pp_report ppf r;
  if Obs.enabled () then Format.fprintf ppf "@\n@\n%a" Obs.pp_summary ()

type options = {
  scene_params : Annotation.Scene_detect.params;
  cpu_busy_fraction : float;
  meter : Power.Meter.t;
}

let default_options =
  {
    scene_params = Annotation.Scene_detect.default_params;
    cpu_busy_fraction = 0.6;
    (* lint: allow L010 playback is the canonical metered pipeline; its
       meter publishes every reading to Obs.Profile *)
    meter = Power.Meter.create ();
  }

type report = {
  clip_name : string;
  device_name : string;
  quality : Annotation.Quality_level.t;
  frames : int;
  duration_s : float;
  mean_register : float;
  switch_count : int;
  annotation_bytes : int;
  backlight_energy_mj : float;
  backlight_baseline_mj : float;
  backlight_savings : float;
  total_energy_mj : float;
  total_baseline_mj : float;
  total_savings : float;
}

let frame_state register =
  {
    Power.State.backlight_on = true;
    backlight_register = register;
    cpu = Power.State.Cpu_busy;
    network = Power.State.Net_receiving;
  }

(* Per-frame average device power (mW): backlight at the register, CPU
   busy for the duty-cycle fraction, network receiving, plus fixed
   components. *)
let power_trace ~device ~cpu_busy_fraction ~registers =
  if cpu_busy_fraction < 0. || cpu_busy_fraction > 1. then
    invalid_arg "Playback.power_trace: duty cycle out of [0, 1]";
  Array.map
    (fun register ->
      let busy = Power.Model.device_power_mw device (frame_state register) in
      let idle =
        Power.Model.device_power_mw device
          { (frame_state register) with Power.State.cpu = Power.State.Cpu_idle }
      in
      (cpu_busy_fraction *. busy) +. ((1. -. cpu_busy_fraction) *. idle))
    registers

let backlight_trace ~device ~registers =
  Array.map
    (fun register -> Power.Model.backlight_power_mw device ~on:true ~register)
    registers

let count_switches registers =
  let switches = ref 0 in
  for i = 1 to Array.length registers - 1 do
    if registers.(i) <> registers.(i - 1) then incr switches
  done;
  !switches

let s_backlight_switches = Obs.Monitor.declare_series "backlight_switches"

let run_with_registers ?(options = default_options) ~device ~quality ~clip_name
    ~fps ~annotation_bytes registers =
  Obs.Trace.with_span "playback.run" ~attrs:[ ("clip", clip_name) ]
  @@ fun () ->
  let frames = Array.length registers in
  if frames = 0 then invalid_arg "Playback: empty register track";
  if fps <= 0. then invalid_arg "Playback: fps must be positive";
  let dt_s = 1. /. fps in
  let meter = options.meter in
  let measure ~component trace =
    (* lint: allow L010 measured through the shared options meter, whose
       publish hook feeds Obs.Profile *)
    Power.Meter.measure_trace ~component meter ~dt_s trace
  in
  let full = Array.make frames 255 in
  let total =
    measure ~component:"playback_total"
      (power_trace ~device ~cpu_busy_fraction:options.cpu_busy_fraction ~registers)
  and total_base =
    measure ~component:"playback_baseline"
      (power_trace ~device ~cpu_busy_fraction:options.cpu_busy_fraction ~registers:full)
  and backlight = measure ~component:"backlight" (backlight_trace ~device ~registers)
  and backlight_base =
    measure ~component:"backlight_baseline" (backlight_trace ~device ~registers:full)
  in
  let switch_count = count_switches registers in
  if Obs.enabled () then
    (* Walk the register track on the simulated clock so the health
       monitor sees per-window frame and switch rates. *)
    Array.iteri
      (fun i _ ->
        Obs.Monitor.count Obs.Monitor.frames_series;
        if i > 0 && registers.(i) <> registers.(i - 1) then begin
          Obs.Monitor.count s_backlight_switches;
          Obs.Journal.record
            ~t_s:(float_of_int i *. dt_s)
            (Obs.Journal.Backlight_switch
               {
                 frame = i;
                 from_register = registers.(i - 1);
                 to_register = registers.(i);
               })
        end;
        Obs.Monitor.advance ~now_s:(float_of_int (i + 1) *. dt_s))
      registers;
  let mean_register =
    float_of_int (Array.fold_left ( + ) 0 registers) /. float_of_int frames
  in
  {
    clip_name;
    device_name = device.Display.Device.name;
    quality;
    frames;
    duration_s = float_of_int frames *. dt_s;
    mean_register;
    switch_count;
    annotation_bytes;
    backlight_energy_mj = backlight.Power.Meter.energy_mj;
    backlight_baseline_mj = backlight_base.Power.Meter.energy_mj;
    backlight_savings = Power.Meter.savings_vs ~baseline:backlight_base backlight;
    total_energy_mj = total.Power.Meter.energy_mj;
    total_baseline_mj = total_base.Power.Meter.energy_mj;
    total_savings = Power.Meter.savings_vs ~baseline:total_base total;
  }

let run_profiled ?(options = default_options) ~device ~quality profiled =
  let track =
    Annotation.Annotator.annotate_profiled ~scene_params:options.scene_params ~device
      ~quality profiled
  in
  run_with_registers ~options ~device ~quality
    ~clip_name:profiled.Annotation.Annotator.clip_name
    ~fps:profiled.Annotation.Annotator.fps
    ~annotation_bytes:(Annotation.Encoding.encoded_size track)
    (Annotation.Track.register_track track)

let run ?options ~device ~quality clip =
  run_profiled ?options ~device ~quality (Annotation.Annotator.profile clip)

let instantaneous_backlight_savings ~device track =
  let full = Power.Model.backlight_power_mw device ~on:true ~register:255 in
  Array.map
    (fun register ->
      1. -. (Power.Model.backlight_power_mw device ~on:true ~register /. full))
    (Annotation.Track.register_track track)

let evaluate_quality ~rig ~device ~clip ~track ~sample_every =
  if sample_every <= 0 then invalid_arg "Playback.evaluate_quality: bad stride";
  let verdicts = ref [] in
  let i = ref 0 in
  while !i < clip.Video.Clip.frame_count do
    let original = clip.Video.Clip.render !i in
    let entry = Annotation.Track.lookup track !i in
    let compensated = Annotation.Compensate.frame track !i original in
    let verdict =
      Camera.Quality.evaluate ~rig ~device ~original ~compensated
        ~reduced_register:entry.Annotation.Track.register
    in
    verdicts := (!i, verdict) :: !verdicts;
    i := !i + sample_every
  done;
  List.rev !verdicts

let pp_report ppf r =
  Format.fprintf ppf
    "%-22s %-12s q=%-4s backlight %5.1f%%  total %5.1f%%  reg %5.1f  switches %3d  annot %4dB"
    r.clip_name r.device_name
    (Annotation.Quality_level.label r.quality)
    (100. *. r.backlight_savings) (100. *. r.total_savings) r.mean_register
    r.switch_count r.annotation_bytes

type outcome = {
  strategy : Strategy.t;
  registers : int array;
  report : Streaming.Playback.report;
  violations : int;
  worst_excess_clip : float;
  aggregate_clipped : float;
  annotation_bytes : int;
}

let solve_register ~device ~quality hist =
  (Annotation.Backlight_solver.solve ~device ~quality hist).Annotation.Backlight_solver.register

let annotated_registers ~device ~quality ~scene_params profiled =
  let track =
    Annotation.Annotator.annotate_profiled ~scene_params ~device ~quality profiled
  in
  (Annotation.Track.register_track track, Annotation.Encoding.encoded_size track)

let history_registers ~device ~quality ~window profiled =
  let hists = profiled.Annotation.Annotator.histograms in
  let n = Array.length hists in
  Array.init n (fun i ->
      if i = 0 then 255
      else begin
        (* Merge the previous [window] frames' histograms; the paper's
           point is that this knowledge is stale at scene changes. *)
        let merged = Image.Histogram.create () in
        let first = max 0 (i - window) in
        for j = first to i - 1 do
          Image.Histogram.merge_into ~dst:merged hists.(j)
        done;
        solve_register ~device ~quality merged
      end)

let qabs_registers ~device ~quality ~max_step profiled =
  if max_step < 1 then invalid_arg "Runner: max_step must be positive";
  let hists = profiled.Annotation.Annotator.histograms in
  let n = Array.length hists in
  let registers = Array.make n 255 in
  let previous = ref 255 in
  for i = 0 to n - 1 do
    let target = solve_register ~device ~quality hists.(i) in
    let step = max (-max_step) (min max_step (target - !previous)) in
    (* Never undershoot the target from above: dimming is rate-limited,
       but brightening to avoid clipping is immediate (QABS smooths
       dimming to avoid flicker while protecting quality). *)
    let next = if target > !previous then target else !previous + step in
    registers.(i) <- next;
    previous := next
  done;
  registers

let decide ~device ~quality profiled strategy =
  match (strategy : Strategy.t) with
  | Strategy.Annotated scene_params ->
    fst (annotated_registers ~device ~quality ~scene_params profiled)
  | Strategy.Annotated_per_frame ->
    fst
      (annotated_registers ~device ~quality
         ~scene_params:Annotation.Scene_detect.per_frame_params profiled)
  | Strategy.Full_backlight ->
    Array.make profiled.Annotation.Annotator.total_frames 255
  | Strategy.Static_dim register ->
    if register < 0 || register > 255 then invalid_arg "Runner: register out of range";
    Array.make profiled.Annotation.Annotator.total_frames register
  | Strategy.Client_analysis _ ->
    Array.map (solve_register ~device ~quality) profiled.Annotation.Annotator.histograms
  | Strategy.History_prediction { window } ->
    if window < 1 then invalid_arg "Runner: window must be positive";
    history_registers ~device ~quality ~window profiled
  | Strategy.Qabs_smoothed { max_step } ->
    qabs_registers ~device ~quality ~max_step profiled

let clipped_fraction_trace ~device profiled registers =
  let hists = profiled.Annotation.Annotator.histograms in
  if Array.length registers <> Array.length hists then
    invalid_arg "Runner: register track does not match clip";
  Array.mapi
    (fun i register ->
      let hist = hists.(i) in
      let total = Image.Histogram.total hist in
      if total = 0 then 0.
      else begin
        let gain = Display.Device.backlight_gain device register in
        (* Compensation k = 1/gain saturates pixels above 255*gain. *)
        let threshold = int_of_float (255. *. gain) in
        float_of_int (Image.Histogram.samples_above hist threshold)
        /. float_of_int total
      end)
    registers

let annotation_cost ~device ~quality profiled strategy =
  match (strategy : Strategy.t) with
  | Strategy.Annotated scene_params ->
    snd (annotated_registers ~device ~quality ~scene_params profiled)
  | Strategy.Annotated_per_frame ->
    snd
      (annotated_registers ~device ~quality
         ~scene_params:Annotation.Scene_detect.per_frame_params profiled)
  | Strategy.Full_backlight | Strategy.Static_dim _ | Strategy.Client_analysis _
  | Strategy.History_prediction _ | Strategy.Qabs_smoothed _ ->
    0

let run ?(options = Streaming.Playback.default_options) ~device ~quality profiled
    strategy =
  let registers = decide ~device ~quality profiled strategy in
  let annotation_bytes = annotation_cost ~device ~quality profiled strategy in
  let overhead = Strategy.cpu_overhead_fraction strategy in
  let options =
    {
      options with
      Streaming.Playback.cpu_busy_fraction =
        Float.min 1. (options.Streaming.Playback.cpu_busy_fraction +. overhead);
    }
  in
  let report =
    Streaming.Playback.run_with_registers ~options ~device ~quality
      ~clip_name:profiled.Annotation.Annotator.clip_name
      ~fps:profiled.Annotation.Annotator.fps ~annotation_bytes registers
  in
  let budget = Annotation.Quality_level.allowed_loss quality in
  let clips = clipped_fraction_trace ~device profiled registers in
  let tolerance = 0.01 in
  let violations = ref 0 and worst = ref 0. in
  Array.iter
    (fun c ->
      let excess = c -. budget in
      if excess > tolerance then begin
        incr violations;
        if excess > !worst then worst := excess
      end)
    clips;
  let total_pixels =
    Array.fold_left
      (fun acc h -> acc + Image.Histogram.total h)
      0 profiled.Annotation.Annotator.histograms
  in
  let clipped_pixels =
    Array.to_list clips
    |> List.mapi (fun i c ->
           c *. float_of_int (Image.Histogram.total profiled.Annotation.Annotator.histograms.(i)))
    |> List.fold_left ( +. ) 0.
  in
  {
    strategy;
    registers;
    report;
    violations = !violations;
    worst_excess_clip = !worst;
    aggregate_clipped =
      (if total_pixels = 0 then 0. else clipped_pixels /. float_of_int total_pixels);
    annotation_bytes;
  }

let standard_lineup =
  [
    Strategy.Annotated Annotation.Scene_detect.default_params;
    Strategy.Annotated_per_frame;
    Strategy.Full_backlight;
    Strategy.Static_dim 178;
    Strategy.Client_analysis { cpu_overhead_fraction = 0.2 };
    Strategy.History_prediction { window = 6 };
    Strategy.Qabs_smoothed { max_step = 8 };
  ]

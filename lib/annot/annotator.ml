type profiled = {
  clip_name : string;
  fps : float;
  total_frames : int;
  histograms : Image.Histogram.t array;
  max_track : int array;
  mean_track : float array;
}

let obs_profiles =
  Obs.counter ~help:"Clips profiled into luminance histograms"
    "annot_profiles_total" []

(* The one place a [profiled] record is built: both the profiling pass
   below and a histogram tap feed it. *)
let profile_of_histograms clip histograms =
  if Array.length histograms <> clip.Video.Clip.frame_count then
    invalid_arg "Annotator.profile_of_histograms: one histogram per frame";
  Obs.Metrics.Counter.incr obs_profiles;
  let max_track =
    Array.map
      (fun h -> if Image.Histogram.total h = 0 then 0 else Image.Histogram.max_level h)
      histograms
  in
  let mean_track =
    Array.map
      (fun h -> if Image.Histogram.total h = 0 then 0. else Image.Histogram.mean h)
      histograms
  in
  {
    clip_name = clip.Video.Clip.name;
    fps = clip.Video.Clip.fps;
    total_frames = clip.Video.Clip.frame_count;
    histograms;
    max_track;
    mean_track;
  }

let profile ?plane ?pool clip =
  Obs.Trace.with_span "annot.profile"
    ~attrs:[ ("clip", clip.Video.Clip.name) ]
  @@ fun () ->
  let histograms =
    match pool with
    | None -> Video.Clip.histogram_track ?plane clip
    | Some pool ->
      (* The expensive pass: one render + pixel walk per frame. Each
         frame writes its own slot, so the memory image — and thus the
         whole [profiled] record — is bit-identical to the sequential
         walk at any domain count. *)
      let n = clip.Video.Clip.frame_count in
      let histograms = Array.make n (Image.Histogram.create ()) in
      Par.Pool.parallel_for pool ~lo:0 ~hi:(n - 1) (fun i ->
          histograms.(i) <- Video.Clip.frame_histogram ?plane clip i);
      histograms
  in
  profile_of_histograms clip histograms

let histogram_tap clip =
  let n = clip.Video.Clip.frame_count in
  let histograms = Array.make n (Image.Histogram.create ()) in
  let seen = Array.make n false in
  let tapped =
    Video.Clip.map_frames ~name:clip.Video.Clip.name
      (fun i frame ->
        histograms.(i) <- Image.Histogram.of_raster frame;
        seen.(i) <- true;
        frame)
      clip
  in
  let finish () =
    if not (Array.for_all Fun.id seen) then
      invalid_arg "Annotator.histogram_tap: a frame was never rendered";
    profile_of_histograms clip histograms
  in
  (tapped, finish)

let scene_histogram profiled (scene : Scene_detect.scene) =
  let merged = Image.Histogram.create () in
  for i = scene.Scene_detect.first to scene.Scene_detect.last do
    Image.Histogram.merge_into ~dst:merged profiled.histograms.(i)
  done;
  merged

let annotate_profiled ?(scene_params = Scene_detect.default_params) ~device
    ~quality profiled =
  Obs.Trace.with_span "annot.annotate"
    ~attrs:
      [
        ("clip", profiled.clip_name);
        ("quality", Quality_level.label quality);
      ]
  @@ fun () ->
  let scenes =
    Scene_detect.segment_with_means scene_params ~max_track:profiled.max_track
      ~mean_track:profiled.mean_track
  in
  (* Journaling must not disturb the solver's own observability
     ([solve] feeds the [annot_clip_fraction] histogram), so the per-grid candidate registers are
     recomputed through the pure clip-level -> register path. *)
  let journal_decision i (scene : Scene_detect.scene) hist
      (sol : Backlight_solver.solution) =
    if Obs.enabled () && Obs.Journal.installed () then begin
      let pure_register q =
        let em =
          Image.Histogram.clip_level hist
            ~allowed_loss:(Quality_level.allowed_loss q)
        in
        Display.Device.register_for_gain device
          (if em = 0 then 0. else float_of_int em /. 255.)
      in
      Obs.Journal.record
        ~t_s:(float_of_int scene.Scene_detect.first /. profiled.fps)
        (Obs.Journal.Scene_decision
           {
             scene = i;
             first_frame = scene.Scene_detect.first;
             frame_count = scene.Scene_detect.last - scene.Scene_detect.first + 1;
             register = sol.Backlight_solver.register;
             effective_max = sol.Backlight_solver.effective_max;
             compensation_fp =
               int_of_float
                 (Float.round (sol.Backlight_solver.compensation *. 4096.));
             clipped_permille =
               int_of_float
                 (Float.round (sol.Backlight_solver.clipped_fraction *. 1000.));
             quality_permille =
               int_of_float
                 (Float.round (Quality_level.allowed_loss quality *. 1000.));
             candidates = List.map pure_register Quality_level.standard_grid;
           })
    end
  in
  let entries =
    List.mapi
      (fun i (scene : Scene_detect.scene) ->
        let hist = scene_histogram profiled scene in
        let sol = Backlight_solver.solve ~device ~quality hist in
        journal_decision i scene hist sol;
        {
          Track.first_frame = scene.Scene_detect.first;
          frame_count = scene.Scene_detect.last - scene.Scene_detect.first + 1;
          register = sol.Backlight_solver.register;
          compensation = sol.Backlight_solver.compensation;
          effective_max = sol.Backlight_solver.effective_max;
        })
      scenes
  in
  Track.make ~clip_name:profiled.clip_name
    ~device_name:device.Display.Device.name ~quality ~fps:profiled.fps
    ~total_frames:profiled.total_frames (Array.of_list entries)

let annotate ?scene_params ?pool ~device ~quality clip =
  annotate_profiled ?scene_params ~device ~quality (profile ?pool clip)

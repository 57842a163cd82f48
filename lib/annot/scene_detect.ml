type params = {
  change_threshold : float;
  min_scene_frames : int;
  mean_change_threshold : float;
}

let default_params =
  { change_threshold = 0.10; min_scene_frames = 6; mean_change_threshold = 0.40 }

let per_frame_params =
  { change_threshold = 0.; min_scene_frames = 1; mean_change_threshold = 0. }

type scene = { first : int; last : int }

let validate params =
  if params.change_threshold < 0. then
    invalid_arg "Scene_detect: negative change threshold";
  if params.mean_change_threshold < 0. then
    invalid_arg "Scene_detect: negative mean change threshold";
  if params.min_scene_frames < 1 then
    invalid_arg "Scene_detect: min scene length must be at least 1"

let relative_change previous current =
  let p = Float.max previous 1. in
  abs_float (current -. previous) /. p

(* A cut opens when a track departs from the previous frame by its
   threshold (hard cuts), or has drifted by the threshold since the
   scene began (fades and slow pans, whose per-frame steps are all
   sub-threshold); either way the minimum scene length gates the cut so
   the backlight cannot flicker. The mean criterion catches flashes
   whose maximum stays pinned while the content brightens wholesale. *)
let segment_general params ~n ~signals =
  validate params;
  if n = 0 then []
  else begin
    let scenes = ref [] in
    let start = ref 0 in
    let departs (value, threshold) i =
      threshold <= 0.
      || relative_change (value (i - 1)) (value i) >= threshold
      || relative_change (value !start) (value i) >= threshold
    in
    for i = 1 to n - 1 do
      let long_enough = i - !start >= params.min_scene_frames in
      if long_enough && List.exists (fun s -> departs s i) signals then begin
        scenes := { first = !start; last = i - 1 } :: !scenes;
        start := i
      end
    done;
    scenes := { first = !start; last = n - 1 } :: !scenes;
    List.rev !scenes
  end

let segment params track =
  let max_signal i = float_of_int track.(i) in
  segment_general params ~n:(Array.length track)
    ~signals:[ (max_signal, params.change_threshold) ]

let segment_with_means params ~max_track ~mean_track =
  if Array.length max_track <> Array.length mean_track then
    invalid_arg "Scene_detect: track length mismatch";
  let max_signal i = float_of_int max_track.(i) in
  let mean_signal i = mean_track.(i) in
  let signals =
    (max_signal, params.change_threshold)
    ::
    (if params.mean_change_threshold = infinity then []
     else [ (mean_signal, params.mean_change_threshold) ])
  in
  segment_general params ~n:(Array.length max_track) ~signals

let scene_max track s =
  let best = ref 0 in
  for i = s.first to s.last do
    if track.(i) > !best then best := track.(i)
  done;
  !best

let switches scenes = max 0 (List.length scenes - 1)

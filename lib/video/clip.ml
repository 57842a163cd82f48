type t = {
  name : string;
  width : int;
  height : int;
  fps : float;
  frame_count : int;
  render : int -> Image.Raster.t;
}

let make ~name ~width ~height ~fps ~frame_count render =
  if width <= 0 || height <= 0 then invalid_arg "Clip.make: dimensions must be positive";
  if fps <= 0. then invalid_arg "Clip.make: fps must be positive";
  if frame_count < 0 then invalid_arg "Clip.make: negative frame count";
  let checked i =
    if i < 0 || i >= frame_count then invalid_arg "Clip.render: frame index out of range";
    render i
  in
  { name; width; height; fps; frame_count; render = checked }

let of_frames ~name ~fps frames =
  match Array.length frames with
  | 0 -> invalid_arg "Clip.of_frames: empty clip"
  | n ->
    let width = Image.Raster.width frames.(0)
    and height = Image.Raster.height frames.(0) in
    Array.iter
      (fun f ->
        if Image.Raster.width f <> width || Image.Raster.height f <> height then
          invalid_arg "Clip.of_frames: inconsistent frame dimensions")
      frames;
    make ~name ~width ~height ~fps ~frame_count:n (fun i -> frames.(i))

let duration_seconds clip = float_of_int clip.frame_count /. clip.fps

let frame_time clip i = float_of_int i /. clip.fps

let iter_frames f clip =
  for i = 0 to clip.frame_count - 1 do
    f i (clip.render i)
  done

let fold_frames f acc clip =
  let acc = ref acc in
  iter_frames (fun i frame -> acc := f !acc i frame) clip;
  !acc

let map_frames ~name f clip =
  { clip with name; render = (fun i -> f i (clip.render i)) }

let max_luminance_track clip =
  Array.init clip.frame_count (fun i -> Image.Raster.max_luminance (clip.render i))

let frame_histogram ?(plane = `Luma) clip i =
  let frame = clip.render i in
  match plane with
  | `Luma -> Image.Histogram.of_raster frame
  | `Channel_max ->
    Image.Histogram.of_luminance_plane (Image.Raster.channel_max_plane frame)

let histogram_track ?plane clip =
  Array.init clip.frame_count (fun i -> frame_histogram ?plane clip i)

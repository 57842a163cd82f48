type rect = { x : int; y : int; w : int; h : int }

type t = { rects : rect list }

let empty = { rects = [] }

let of_rects rects =
  List.iter
    (fun r -> if r.w < 0 || r.h < 0 then invalid_arg "Roi.of_rects: negative dimensions")
    rects;
  { rects = List.filter (fun r -> r.w > 0 && r.h > 0) rects }

let center_band ~width ~height ~fraction =
  if fraction <= 0. || fraction > 1. then
    invalid_arg "Roi.center_band: fraction out of (0, 1]";
  let band_h = max 1 (int_of_float (float_of_int height *. fraction)) in
  let y = (height - band_h) / 2 in
  of_rects [ { x = 0; y; w = width; h = band_h } ]

let rect_contains r ~x ~y = x >= r.x && x < r.x + r.w && y >= r.y && y < r.y + r.h

let contains t ~x ~y = List.exists (fun r -> rect_contains r ~x ~y) t.rects

let pixel_count t ~width ~height =
  (* Counting by membership keeps overlapping rects exact; regions are
     small unions, frames are small, so the scan is fine. *)
  let count = ref 0 in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      if contains t ~x ~y then incr count
    done
  done;
  !count

let split_histograms t frame ~inside ~outside =
  Raster.iter
    (fun ~x ~y p ->
      let luma = Pixel.luminance p in
      if contains t ~x ~y then Histogram.add_sample inside luma
      else Histogram.add_sample outside luma)
    frame

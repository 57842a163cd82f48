type t = { bins : int array }

let bins_len = 256

let create () = { bins = Array.make bins_len 0 }

(* Counts each pixel's luma straight off the raster bytes: the same
   values as [of_luminance_plane (Raster.luminance_plane img)], with
   no plane in between. *)
let of_raster img =
  let h = create () in
  let d = Raster.data img in
  let c o = Char.code (Bytes.unsafe_get d o) in
  for i = 0 to Raster.pixel_count img - 1 do
    let o = 3 * i in
    let y = Pixel.luminance_rgb (c o) (c (o + 1)) (c (o + 2)) in
    h.bins.(y) <- h.bins.(y) + 1
  done;
  h

let of_luminance_plane plane =
  let h = create () in
  for i = 0 to Bytes.length plane - 1 do
    let y = Char.code (Bytes.unsafe_get plane i) in
    h.bins.(y) <- h.bins.(y) + 1
  done;
  h

let of_counts counts =
  if Array.length counts <> bins_len then
    invalid_arg "Histogram.of_counts: need 256 bins";
  Array.iter
    (fun c -> if c < 0 then invalid_arg "Histogram.of_counts: negative count")
    counts;
  { bins = Array.copy counts }

let add_sample h y =
  if y < 0 || y > 255 then invalid_arg "Histogram.add_sample: level out of range";
  h.bins.(y) <- h.bins.(y) + 1

let merge a b = { bins = Array.init bins_len (fun i -> a.bins.(i) + b.bins.(i)) }

let merge_into ~dst h =
  for i = 0 to bins_len - 1 do
    dst.bins.(i) <- dst.bins.(i) + h.bins.(i)
  done

let copy h = { bins = Array.copy h.bins }

let count h y =
  if y < 0 || y > 255 then invalid_arg "Histogram.count: level out of range";
  h.bins.(y)

let total h = Array.fold_left ( + ) 0 h.bins

let require_nonempty name h =
  if total h = 0 then invalid_arg (name ^ ": empty histogram")

let mean h =
  require_nonempty "Histogram.mean" h;
  let sum = ref 0 in
  for y = 0 to bins_len - 1 do
    sum := !sum + (y * h.bins.(y))
  done;
  float_of_int !sum /. float_of_int (total h)

let max_level h =
  require_nonempty "Histogram.max_level" h;
  let rec loop y = if h.bins.(y) > 0 then y else loop (y - 1) in
  loop (bins_len - 1)

let min_level h =
  require_nonempty "Histogram.min_level" h;
  let rec loop y = if h.bins.(y) > 0 then y else loop (y + 1) in
  loop 0

let dynamic_range h = max_level h - min_level h

let percentile_level h p =
  require_nonempty "Histogram.percentile_level" h;
  if p < 0. || p > 1. then invalid_arg "Histogram.percentile_level: p out of range";
  let n = total h in
  let target = p *. float_of_int n in
  (* [acc > 0] keeps p = 0 (target 0) from answering an empty bin:
     the percentile level must contain at least one sample, so the
     floor of the walk is the lowest populated bin (= min_level). *)
  let rec loop y acc =
    let acc = acc + h.bins.(y) in
    if (acc > 0 && float_of_int acc >= target) || y = bins_len - 1 then y
    else loop (y + 1) acc
  in
  loop 0 0

let samples_above h y =
  let lo = max 0 (y + 1) in
  let sum = ref 0 in
  for i = lo to bins_len - 1 do
    sum := !sum + h.bins.(i)
  done;
  !sum

let clip_level h ~allowed_loss =
  require_nonempty "Histogram.clip_level" h;
  if allowed_loss < 0. || allowed_loss > 1. then
    invalid_arg "Histogram.clip_level: loss out of range";
  let n = float_of_int (total h) in
  let budget = allowed_loss *. n in
  (* Walk down from the top, accumulating the samples that would clip if
     the level were lowered past them; stop before exceeding the budget. *)
  let rec loop y lost =
    if y = 0 then 0
    else
      let lost' = lost + h.bins.(y) in
      if float_of_int lost' > budget then y else loop (y - 1) lost'
  in
  loop (max_level h) 0

let normalised h =
  let n = float_of_int (total h) in
  Array.map (fun c -> float_of_int c /. n) h.bins

let l1_distance a b =
  require_nonempty "Histogram.l1_distance" a;
  require_nonempty "Histogram.l1_distance" b;
  let pa = normalised a and pb = normalised b in
  let sum = ref 0. in
  for i = 0 to bins_len - 1 do
    sum := !sum +. abs_float (pa.(i) -. pb.(i))
  done;
  !sum

let earth_movers_distance a b =
  require_nonempty "Histogram.earth_movers_distance" a;
  require_nonempty "Histogram.earth_movers_distance" b;
  let pa = normalised a and pb = normalised b in
  let sum = ref 0. and cdf_diff = ref 0. in
  for i = 0 to bins_len - 1 do
    cdf_diff := !cdf_diff +. pa.(i) -. pb.(i);
    sum := !sum +. abs_float !cdf_diff
  done;
  !sum

let chi_square a b =
  require_nonempty "Histogram.chi_square" a;
  require_nonempty "Histogram.chi_square" b;
  let pa = normalised a and pb = normalised b in
  let sum = ref 0. in
  for i = 0 to bins_len - 1 do
    let s = pa.(i) +. pb.(i) in
    if s > 0. then begin
      let d = pa.(i) -. pb.(i) in
      sum := !sum +. (d *. d /. s)
    end
  done;
  !sum

let intersection a b =
  require_nonempty "Histogram.intersection" a;
  require_nonempty "Histogram.intersection" b;
  let pa = normalised a and pb = normalised b in
  let sum = ref 0. in
  for i = 0 to bins_len - 1 do
    sum := !sum +. min pa.(i) pb.(i)
  done;
  !sum

let to_array h = Array.copy h.bins

let equal a b = a.bins = b.bins

let pp ppf h =
  if total h = 0 then Format.fprintf ppf "<histogram empty>"
  else
    Format.fprintf ppf "<histogram n=%d mean=%.1f range=[%d,%d]>" (total h)
      (mean h) (min_level h) (max_level h)

type t = { width : int; height : int; data : Bytes.t }

let create ~width ~height =
  if width <= 0 || height <= 0 then
    invalid_arg "Raster.create: dimensions must be positive";
  { width; height; data = Bytes.make (width * height * 3) '\000' }

let width img = img.width
let height img = img.height
let pixel_count img = img.width * img.height

let in_bounds img ~x ~y = x >= 0 && x < img.width && y >= 0 && y < img.height

let offset img ~x ~y =
  if not (in_bounds img ~x ~y) then invalid_arg "Raster: out of bounds";
  ((y * img.width) + x) * 3

let get img ~x ~y =
  let o = offset img ~x ~y in
  {
    Pixel.r = Char.code (Bytes.unsafe_get img.data o);
    g = Char.code (Bytes.unsafe_get img.data (o + 1));
    b = Char.code (Bytes.unsafe_get img.data (o + 2));
  }

let set img ~x ~y { Pixel.r; g; b } =
  let o = offset img ~x ~y in
  Bytes.unsafe_set img.data o (Char.unsafe_chr r);
  Bytes.unsafe_set img.data (o + 1) (Char.unsafe_chr g);
  Bytes.unsafe_set img.data (o + 2) (Char.unsafe_chr b)

let fill img { Pixel.r; g; b } =
  let n = pixel_count img in
  for i = 0 to n - 1 do
    let o = i * 3 in
    Bytes.unsafe_set img.data o (Char.unsafe_chr r);
    Bytes.unsafe_set img.data (o + 1) (Char.unsafe_chr g);
    Bytes.unsafe_set img.data (o + 2) (Char.unsafe_chr b)
  done

let copy img = { img with data = Bytes.copy img.data }

let blit ~src ~dst =
  if src.width <> dst.width || src.height <> dst.height then
    invalid_arg "Raster.blit: dimension mismatch";
  Bytes.blit src.data 0 dst.data 0 (Bytes.length src.data)

let init ~width ~height f =
  let img = create ~width ~height in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      set img ~x ~y (f ~x ~y)
    done
  done;
  img

let data img = img.data

let unsafe_get_index img i =
  let o = i * 3 in
  {
    Pixel.r = Char.code (Bytes.unsafe_get img.data o);
    g = Char.code (Bytes.unsafe_get img.data (o + 1));
    b = Char.code (Bytes.unsafe_get img.data (o + 2));
  }

let unsafe_set_index img i { Pixel.r; g; b } =
  let o = i * 3 in
  Bytes.unsafe_set img.data o (Char.unsafe_chr r);
  Bytes.unsafe_set img.data (o + 1) (Char.unsafe_chr g);
  Bytes.unsafe_set img.data (o + 2) (Char.unsafe_chr b)

let map_inplace f img =
  let n = pixel_count img in
  for i = 0 to n - 1 do
    unsafe_set_index img i (f (unsafe_get_index img i))
  done

let map f img =
  let out = copy img in
  map_inplace f out;
  out

let iter f img =
  for y = 0 to img.height - 1 do
    for x = 0 to img.width - 1 do
      f ~x ~y (unsafe_get_index img ((y * img.width) + x))
    done
  done

(* Channel [c] of pixel [i] is byte [3 * i + c] of [img.data]. The
   whole-image kernels below read those bytes directly, so no pixel
   record is built per pixel. *)
let[@inline] channel d o = Char.code (Bytes.unsafe_get d o)

let fold f acc img =
  let d = img.data in
  let acc = ref acc in
  for i = 0 to pixel_count img - 1 do
    let o = i * 3 in
    acc :=
      f !acc
        { Pixel.r = channel d o; g = channel d (o + 1); b = channel d (o + 2) }
  done;
  !acc

let[@inline] luminance_at d o =
  Pixel.luminance_rgb (channel d o) (channel d (o + 1)) (channel d (o + 2))

let luminance_plane img =
  let n = pixel_count img and d = img.data in
  let plane = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set plane i (Char.unsafe_chr (luminance_at d (i * 3)))
  done;
  plane

let channel_max_plane img =
  let n = pixel_count img and d = img.data in
  let plane = Bytes.create n in
  for i = 0 to n - 1 do
    let o = i * 3 in
    let m = max (channel d o) (max (channel d (o + 1)) (channel d (o + 2))) in
    Bytes.unsafe_set plane i (Char.unsafe_chr m)
  done;
  plane

let max_luminance img =
  let n = pixel_count img and d = img.data in
  let best = ref 0 and i = ref 0 in
  while !i < n && !best < 255 do
    let y = luminance_at d (!i * 3) in
    if y > !best then best := y;
    incr i
  done;
  !best

let mean_luminance img =
  let n = pixel_count img and d = img.data in
  let total = ref 0 in
  for i = 0 to n - 1 do
    total := !total + luminance_at d (i * 3)
  done;
  float_of_int !total /. float_of_int n

let equal a b =
  a.width = b.width && a.height = b.height && Bytes.equal a.data b.data

let pp ppf img =
  Format.fprintf ppf "<raster %dx%d mean-luma %.1f>" img.width img.height
    (mean_luminance img)

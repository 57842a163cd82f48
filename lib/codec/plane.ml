type t = { width : int; height : int; samples : int array }

let create ~width ~height =
  if width <= 0 || height <= 0 then invalid_arg "Plane.create: bad dimensions";
  { width; height; samples = Array.make (width * height) 0 }

let clamp_coord v limit = if v < 0 then 0 else if v >= limit then limit - 1 else v

let get p ~x ~y =
  let x = clamp_coord x p.width and y = clamp_coord y p.height in
  p.samples.((y * p.width) + x)

let set p ~x ~y v =
  if x < 0 || x >= p.width || y < 0 || y >= p.height then
    invalid_arg "Plane.set: out of bounds";
  p.samples.((y * p.width) + x) <- v

let clamp p =
  for i = 0 to Array.length p.samples - 1 do
    let v = p.samples.(i) in
    p.samples.(i) <- (if v < 0 then 0 else if v > 255 then 255 else v)
  done

let copy p = { p with samples = Array.copy p.samples }

let round_up v m = (v + m - 1) / m * m

let pad_to_multiple p m =
  if m <= 0 then invalid_arg "Plane.pad_to_multiple: bad multiple";
  let w = round_up p.width m and h = round_up p.height m in
  if w = p.width && h = p.height then p
  else begin
    let out = create ~width:w ~height:h in
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        out.samples.((y * w) + x) <- get p ~x ~y
      done
    done;
    out
  end

let equal a b = a.width = b.width && a.height = b.height && a.samples = b.samples

type ycbcr = { y : t; cb : t; cr : t }

let chroma_dim d = (d + 1) / 2

(* Integer BT.601 full-range conversion, one component per function so
   the per-pixel loops below allocate nothing. *)
let luma r g b = ((19595 * r) + (38470 * g) + (7471 * b) + 32768) lsr 16

let chroma_b r g b = 128 + (((-11056 * r) - (21712 * g) + (32768 * b)) asr 16)

let chroma_r r g b = 128 + (((32768 * r) - (27440 * g) - (5328 * b)) asr 16)

let clamp255 v = if v < 0 then 0 else if v > 255 then 255 else v

let red y cr = clamp255 (y + ((91881 * (cr - 128)) asr 16))

let green y cb cr =
  clamp255 (y - ((22554 * (cb - 128)) asr 16) - ((46802 * (cr - 128)) asr 16))

let blue y cb = clamp255 (y + ((116130 * (cb - 128)) asr 16))

(* Repeats column [w - 1] and row [h - 1] of [p]'s top-left [w]x[h]
   into the rest of [p]: sample [(x, y)] becomes sample
   [(min x (w - 1), min y (h - 1))], as [pad_to_multiple] reads it. *)
let replicate_edges p ~w ~h =
  let s = p.samples and pw = p.width in
  for y = 0 to h - 1 do
    let edge = s.((y * pw) + w - 1) in
    Array.fill s ((y * pw) + w) (pw - w) edge
  done;
  for y = h to p.height - 1 do
    Array.blit s ((h - 1) * pw) s (y * pw) pw
  done

(* One pass over the pixels: luma straight into [yp], and each chroma
   site accumulates its (up to) 2x2 pixels in place. Integer sums do
   not depend on the order of their terms, so each site's average is
   the one a separate accumulator gives. *)
let of_raster_into img { y = yp; cb = cbp; cr = crp } =
  let w = Image.Raster.width img and h = Image.Raster.height img in
  let cw = chroma_dim w and ch = chroma_dim h in
  let fits (p : t) w h = w <= p.width && h <= p.height in
  if not (fits yp w h && fits cbp cw ch && fits crp cw ch) then
    invalid_arg "Plane.of_raster_into: planes smaller than the picture";
  let d = Image.Raster.data img in
  let ys = yp.samples and cbs = cbp.samples and crs = crp.samples in
  for cy = 0 to ch - 1 do
    Array.fill cbs (cy * cbp.width) cw 0;
    Array.fill crs (cy * crp.width) cw 0
  done;
  for y = 0 to h - 1 do
    let yo = y * yp.width and cbo = y / 2 * cbp.width and cro = y / 2 * crp.width in
    for x = 0 to w - 1 do
      let o = 3 * ((y * w) + x) in
      let r = Char.code (Bytes.unsafe_get d o)
      and g = Char.code (Bytes.unsafe_get d (o + 1))
      and b = Char.code (Bytes.unsafe_get d (o + 2)) in
      ys.(yo + x) <- luma r g b;
      cbs.(cbo + (x / 2)) <- cbs.(cbo + (x / 2)) + chroma_b r g b;
      crs.(cro + (x / 2)) <- crs.(cro + (x / 2)) + chroma_r r g b
    done
  done;
  for cy = 0 to ch - 1 do
    let rows = if (2 * cy) + 1 < h then 2 else 1 in
    for cx = 0 to cw - 1 do
      let count = rows * if (2 * cx) + 1 < w then 2 else 1 in
      cbs.((cy * cbp.width) + cx) <- cbs.((cy * cbp.width) + cx) / count;
      crs.((cy * crp.width) + cx) <- crs.((cy * crp.width) + cx) / count
    done
  done;
  replicate_edges yp ~w ~h;
  replicate_edges cbp ~w:cw ~h:ch;
  replicate_edges crp ~w:cw ~h:ch

let create_ycbcr ~width ~height ~multiple:m =
  let cw = round_up (chroma_dim width) m and ch = round_up (chroma_dim height) m in
  {
    y = create ~width:(round_up width m) ~height:(round_up height m);
    cb = create ~width:cw ~height:ch;
    cr = create ~width:cw ~height:ch;
  }

let has_ycbcr_geometry { y; cb; cr } ~width ~height ~multiple:m =
  let is (p : t) w h = p.width = round_up w m && p.height = round_up h m in
  let cw = chroma_dim width and ch = chroma_dim height in
  is y width height && is cb cw ch && is cr cw ch

let of_raster img =
  let planes =
    create_ycbcr ~width:(Image.Raster.width img) ~height:(Image.Raster.height img)
      ~multiple:1
  in
  of_raster_into img planes;
  planes

(* Every chroma site [(x / 2, y / 2)] of the crop lies inside chroma
   planes of at least [chroma_dim width] x [chroma_dim height], so once
   [check_covers] holds the samples are read directly and nothing is
   ever clamped. *)
let check_covers name { y = yp; cb = cbp; cr = crp } ~width ~height =
  let covers (p : t) w h = w <= p.width && h <= p.height in
  if width <= 0 || height <= 0
     || not (covers yp width height)
     || not (covers cbp (chroma_dim width) (chroma_dim height))
     || not (covers crp (chroma_dim width) (chroma_dim height))
  then invalid_arg (name ^ ": planes do not cover the picture")

let to_raster_cropped ({ y = yp; cb = cbp; cr = crp } as planes) ~width ~height =
  check_covers "Plane.to_raster" planes ~width ~height;
  let img = Image.Raster.create ~width ~height in
  let d = Image.Raster.data img in
  let ys = yp.samples and cbs = cbp.samples and crs = crp.samples in
  for y = 0 to height - 1 do
    let yo = y * yp.width and cbo = y / 2 * cbp.width and cro = y / 2 * crp.width in
    for x = 0 to width - 1 do
      let ly = Array.unsafe_get ys (yo + x)
      and cb = Array.unsafe_get cbs (cbo + (x / 2))
      and cr = Array.unsafe_get crs (cro + (x / 2)) in
      let o = 3 * ((y * width) + x) in
      Bytes.unsafe_set d o (Char.unsafe_chr (red ly cr));
      Bytes.unsafe_set d (o + 1) (Char.unsafe_chr (green ly cb cr));
      Bytes.unsafe_set d (o + 2) (Char.unsafe_chr (blue ly cb))
    done
  done;
  img

(* The channel differences of [to_raster_cropped a] and
   [to_raster_cropped b], pixel by pixel, with the same conversion
   functions: the same integers, and no raster. *)
let squared_error_cropped a b ~width ~height =
  check_covers "Plane.squared_error_cropped" a ~width ~height;
  check_covers "Plane.squared_error_cropped" b ~width ~height;
  let ays = a.y.samples and acbs = a.cb.samples and acrs = a.cr.samples in
  let bys = b.y.samples and bcbs = b.cb.samples and bcrs = b.cr.samples in
  let sum = ref 0 in
  for y = 0 to height - 1 do
    let ayo = y * a.y.width and acbo = y / 2 * a.cb.width and acro = y / 2 * a.cr.width in
    let byo = y * b.y.width and bcbo = y / 2 * b.cb.width and bcro = y / 2 * b.cr.width in
    for x = 0 to width - 1 do
      let aly = Array.unsafe_get ays (ayo + x)
      and acb = Array.unsafe_get acbs (acbo + (x / 2))
      and acr = Array.unsafe_get acrs (acro + (x / 2)) in
      let bly = Array.unsafe_get bys (byo + x)
      and bcb = Array.unsafe_get bcbs (bcbo + (x / 2))
      and bcr = Array.unsafe_get bcrs (bcro + (x / 2)) in
      let dr = red aly acr - red bly bcr
      and dg = green aly acb acr - green bly bcb bcr
      and db = blue aly acb - blue bly bcb in
      sum := !sum + (dr * dr) + (dg * dg) + (db * db)
    done
  done;
  !sum

let to_raster planes =
  to_raster_cropped planes ~width:planes.y.width ~height:planes.y.height

let mean_absolute_difference a b =
  if a.width <> b.width || a.height <> b.height then
    invalid_arg "Plane.mean_absolute_difference: dimension mismatch";
  let sum = ref 0 in
  for i = 0 to Array.length a.samples - 1 do
    sum := !sum + abs (a.samples.(i) - b.samples.(i))
  done;
  float_of_int !sum /. float_of_int (Array.length a.samples)

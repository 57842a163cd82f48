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

let pad_to_multiple p m =
  if m <= 0 then invalid_arg "Plane.pad_to_multiple: bad multiple";
  let round v = (v + m - 1) / m * m in
  let w = round p.width and h = round p.height in
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

let of_raster img =
  let w = Image.Raster.width img and h = Image.Raster.height img in
  let cw = chroma_dim w and ch = chroma_dim h in
  let yp = create ~width:w ~height:h in
  let cbp = create ~width:cw ~height:ch in
  let crp = create ~width:cw ~height:ch in
  (* Accumulate chroma over 2x2 sites. *)
  let cb_acc = Array.make (cw * ch) 0
  and cr_acc = Array.make (cw * ch) 0
  and cnt = Array.make (cw * ch) 0 in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let i = (y * w) + x in
      let r = Image.Raster.byte img (3 * i)
      and g = Image.Raster.byte img ((3 * i) + 1)
      and b = Image.Raster.byte img ((3 * i) + 2) in
      yp.samples.(i) <- luma r g b;
      let ci = ((y / 2) * cw) + (x / 2) in
      cb_acc.(ci) <- cb_acc.(ci) + chroma_b r g b;
      cr_acc.(ci) <- cr_acc.(ci) + chroma_r r g b;
      cnt.(ci) <- cnt.(ci) + 1
    done
  done;
  for i = 0 to (cw * ch) - 1 do
    cbp.samples.(i) <- cb_acc.(i) / max 1 cnt.(i);
    crp.samples.(i) <- cr_acc.(i) / max 1 cnt.(i)
  done;
  { y = yp; cb = cbp; cr = crp }

(* Every chroma site [(x / 2, y / 2)] of the crop lies inside chroma
   planes of at least [chroma_dim width] x [chroma_dim height], so the
   samples are read directly and nothing is ever clamped. *)
let to_raster_cropped { y = yp; cb = cbp; cr = crp } ~width ~height =
  let covers (p : t) w h = w <= p.width && h <= p.height in
  if width <= 0 || height <= 0
     || not (covers yp width height)
     || not (covers cbp (chroma_dim width) (chroma_dim height))
     || not (covers crp (chroma_dim width) (chroma_dim height))
  then invalid_arg "Plane.to_raster: planes do not cover the picture";
  let img = Image.Raster.create ~width ~height in
  let ys = yp.samples and cbs = cbp.samples and crs = crp.samples in
  for y = 0 to height - 1 do
    let yo = y * yp.width and cbo = y / 2 * cbp.width and cro = y / 2 * crp.width in
    for x = 0 to width - 1 do
      let ly = ys.(yo + x) and cb = cbs.(cbo + (x / 2)) and cr = crs.(cro + (x / 2)) in
      let o = 3 * ((y * width) + x) in
      Image.Raster.set_byte img o (red ly cr);
      Image.Raster.set_byte img (o + 1) (green ly cb cr);
      Image.Raster.set_byte img (o + 2) (blue ly cb)
    done
  done;
  img

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

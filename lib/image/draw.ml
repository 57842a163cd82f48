(* Per-channel arithmetic on raster bytes: each helper is the channel
   expression of the {!Pixel} operation it names, so the byte kernels
   below write exactly what the pixel-record versions wrote. *)
let[@inline] clamp c = if c < 0 then 0 else if c > 255 then 255 else c

let[@inline] get d o = Char.code (Bytes.unsafe_get d o)

let[@inline] put d o v = Bytes.unsafe_set d o (Char.unsafe_chr v)

(* [Pixel.scale k] on one channel. *)
let[@inline] scale k c = clamp (int_of_float ((k *. float_of_int c) +. 0.5))

(* [Pixel.add d] on one channel. *)
let[@inline] add d c = clamp (c + d)

(* One channel of the blend [(1 - t) * a + t * b], rounded. *)
let[@inline] mix ca cb t =
  clamp
    (int_of_float (((1. -. t) *. float_of_int ca) +. (t *. float_of_int cb) +. 0.5))

let lerp_pixel a b t =
  {
    Pixel.r = mix a.Pixel.r b.Pixel.r t;
    g = mix a.Pixel.g b.Pixel.g t;
    b = mix a.Pixel.b b.Pixel.b t;
  }

let fill_vertical_gradient img ~top ~bottom =
  let h = Raster.height img and w = Raster.width img in
  for y = 0 to h - 1 do
    let t = if h = 1 then 0. else float_of_int y /. float_of_int (h - 1) in
    let p = lerp_pixel top bottom t in
    for x = 0 to w - 1 do
      Raster.set img ~x ~y p
    done
  done

let fill_radial_gradient img ~center ~edge ~cx ~cy =
  let w = Raster.width img and h = Raster.height img in
  let fx = cx *. float_of_int (w - 1) and fy = cy *. float_of_int (h - 1) in
  (* Distance to the farthest corner normalises the blend parameter. *)
  let corner_dist x y = sqrt (((fx -. x) ** 2.) +. ((fy -. y) ** 2.)) in
  let dmax =
    List.fold_left max 0.
      [
        corner_dist 0. 0.;
        corner_dist (float_of_int (w - 1)) 0.;
        corner_dist 0. (float_of_int (h - 1));
        corner_dist (float_of_int (w - 1)) (float_of_int (h - 1));
      ]
  in
  let dmax = if dmax <= 0. then 1. else dmax in
  let data = Raster.data img in
  let { Pixel.r = r0; g = g0; b = b0 } = center
  and { Pixel.r = r1; g = g1; b = b1 } = edge in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      (* [corner_dist], written out: a call would box its arguments. *)
      let d =
        sqrt (((fx -. float_of_int x) ** 2.) +. ((fy -. float_of_int y) ** 2.)) /. dmax
      in
      let o = 3 * ((y * w) + x) in
      put data o (mix r0 r1 d);
      put data (o + 1) (mix g0 g1 d);
      put data (o + 2) (mix b0 b1 d)
    done
  done

let rect img ~x ~y ~w ~h p =
  let x0 = max 0 x and y0 = max 0 y in
  let x1 = min (Raster.width img) (x + w) and y1 = min (Raster.height img) (y + h) in
  for yy = y0 to y1 - 1 do
    for xx = x0 to x1 - 1 do
      Raster.set img ~x:xx ~y:yy p
    done
  done

let disc img ~cx ~cy ~radius p =
  let r2 = radius * radius in
  let x0 = max 0 (cx - radius) and y0 = max 0 (cy - radius) in
  let x1 = min (Raster.width img - 1) (cx + radius)
  and y1 = min (Raster.height img - 1) (cy + radius) in
  for y = y0 to y1 do
    for x = x0 to x1 do
      let dx = x - cx and dy = y - cy in
      if (dx * dx) + (dy * dy) <= r2 then Raster.set img ~x ~y p
    done
  done

let shaded_disc img ~cx ~cy ~radius ~falloff p =
  if falloff < 0. || falloff > 1. then invalid_arg "Draw.shaded_disc: falloff out of [0, 1]";
  let r2 = radius * radius in
  let x0 = max 0 (cx - radius) and y0 = max 0 (cy - radius) in
  let x1 = min (Raster.width img - 1) (cx + radius)
  and y1 = min (Raster.height img - 1) (cy + radius) in
  let data = Raster.data img and w = Raster.width img in
  let { Pixel.r; g; b } = p in
  for y = y0 to y1 do
    for x = x0 to x1 do
      let dx = x - cx and dy = y - cy in
      let d2 = (dx * dx) + (dy * dy) in
      if d2 <= r2 then begin
        (* In [1 - falloff, 1], so never negative. *)
        let k = 1. -. (falloff *. float_of_int d2 /. float_of_int (max 1 r2)) in
        let o = 3 * ((y * w) + x) in
        put data o (scale k r);
        put data (o + 1) (scale k g);
        put data (o + 2) (scale k b)
      end
    done
  done

let glow img ~cx ~cy ~radius ~intensity =
  if radius > 0 then begin
    let r2 = float_of_int (radius * radius) in
    let x0 = max 0 (cx - radius) and y0 = max 0 (cy - radius) in
    let x1 = min (Raster.width img - 1) (cx + radius)
    and y1 = min (Raster.height img - 1) (cy + radius) in
    let data = Raster.data img and w = Raster.width img in
    for y = y0 to y1 do
      for x = x0 to x1 do
        let dx = x - cx and dy = y - cy in
        let d2 = float_of_int ((dx * dx) + (dy * dy)) in
        if d2 <= r2 then begin
          let falloff = 1. -. (d2 /. r2) in
          let boost = int_of_float (float_of_int intensity *. falloff *. falloff) in
          if boost > 0 then begin
            let o = 3 * ((y * w) + x) in
            put data o (add boost (get data o));
            put data (o + 1) (add boost (get data (o + 1)));
            put data (o + 2) (add boost (get data (o + 2)))
          end
        end
      done
    done
  end

let add_noise img ~rng ~sigma =
  let data = Raster.data img in
  for i = 0 to Raster.pixel_count img - 1 do
    let d = Prng.gaussian_int rng ~mu:0. ~sigma in
    let o = 3 * i in
    put data o (add d (get data o));
    put data (o + 1) (add d (get data (o + 1)));
    put data (o + 2) (add d (get data (o + 2)))
  done

let vignette img ~strength =
  if strength < 0. || strength > 1. then invalid_arg "Draw.vignette: strength out of [0, 1]";
  let w = Raster.width img and h = Raster.height img in
  let fx = float_of_int (w - 1) /. 2. and fy = float_of_int (h - 1) /. 2. in
  let dmax = sqrt ((fx *. fx) +. (fy *. fy)) in
  let dmax = if dmax <= 0. then 1. else dmax in
  let data = Raster.data img in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let dx = float_of_int x -. fx and dy = float_of_int y -. fy in
      let d = sqrt ((dx *. dx) +. (dy *. dy)) /. dmax in
      (* [d] is at most 1 (the corners), so [k] is never negative. *)
      let k = 1. -. (strength *. d *. d) in
      let o = 3 * ((y * w) + x) in
      put data o (scale k (get data o));
      put data (o + 1) (scale k (get data (o + 1)));
      put data (o + 2) (scale k (get data (o + 2)))
    done
  done

let credit_lines img ~rng ~lines ~ink =
  let w = Raster.width img and h = Raster.height img in
  if lines > 0 && h >= 4 then begin
    let spacing = max 4 (h / (lines + 1)) in
    let line_height = max 1 (spacing / 3) in
    for i = 1 to lines do
      let y = i * spacing in
      if y + line_height < h then begin
        (* A line is a run of dashes of random width, roughly centred. *)
        let dashes = 2 + Prng.int rng 4 in
        let x = ref (w / 8) in
        for _ = 1 to dashes do
          let dash_w = (w / 16) + Prng.int rng (max 1 (w / 10)) in
          if !x + dash_w < w * 7 / 8 then
            rect img ~x:!x ~y ~w:dash_w ~h:line_height ink;
          x := !x + dash_w + (w / 20) + Prng.int rng (max 1 (w / 20))
        done
      end
    done
  end

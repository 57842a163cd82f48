type vector = { dx : int; dy : int }

let zero = { dx = 0; dy = 0 }

let block = 8

let vector_norm v = abs v.dx + abs v.dy

(* The [w]x[h] footprint at [(x, y)] lies wholly inside [p]. *)
let inside (p : Plane.t) ~x ~y ~w ~h =
  x >= 0 && y >= 0 && x + w <= p.Plane.width && y + h <= p.Plane.height

let extract_block_into (p : Plane.t) ~x ~y out =
  if inside p ~x ~y ~w:block ~h:block then begin
    let s = p.Plane.samples and w = p.Plane.width in
    for by = 0 to block - 1 do
      let o = ((y + by) * w) + x in
      for bx = 0 to block - 1 do
        out.((by * block) + bx) <- float_of_int s.(o + bx)
      done
    done
  end
  else
    for by = 0 to block - 1 do
      for bx = 0 to block - 1 do
        out.((by * block) + bx) <-
          float_of_int (Plane.get p ~x:(x + bx) ~y:(y + by))
      done
    done

let extract_block p ~x ~y =
  let out = Array.make (block * block) 0. in
  extract_block_into p ~x ~y out;
  out

let extract_predicted_into p ~x ~y v out =
  extract_block_into p ~x:(x + v.dx) ~y:(y + v.dy) out

let extract_predicted p ~x ~y v = extract_block p ~x:(x + v.dx) ~y:(y + v.dy)

let store_block (p : Plane.t) ~x ~y samples =
  if inside p ~x ~y ~w:block ~h:block then begin
    let s = p.Plane.samples and w = p.Plane.width in
    for by = 0 to block - 1 do
      let o = ((y + by) * w) + x in
      for bx = 0 to block - 1 do
        s.(o + bx) <- int_of_float (Float.round samples.((by * block) + bx))
      done
    done
  end
  else
    for i = 0 to (block * block) - 1 do
      let bx = i mod block and by = i / block in
      let px = x + bx and py = y + by in
      if px >= 0 && px < p.Plane.width && py >= 0 && py < p.Plane.height then
        Plane.set p ~x:px ~y:py (int_of_float (Float.round samples.(i)))
    done

let halve v = { dx = v.dx / 2; dy = v.dy / 2 }

let to_halfpel v = { dx = 2 * v.dx; dy = 2 * v.dy }

(* Bilinear sample at half-pel position (2*px + fx, 2*py + fy)/2 where
   fx, fy are the fractional half-pel bits. Integer parts use
   arithmetic shifts so negative vectors floor correctly. *)
let halfpel_sample p ~hx ~hy =
  let ix = hx asr 1 and iy = hy asr 1 in
  let fx = hx land 1 and fy = hy land 1 in
  let s dx dy = Plane.get p ~x:(ix + dx) ~y:(iy + dy) in
  match (fx, fy) with
  | 0, 0 -> s 0 0
  | 1, 0 -> (s 0 0 + s 1 0 + 1) / 2
  | 0, 1 -> (s 0 0 + s 0 1 + 1) / 2
  | _ -> (s 0 0 + s 1 0 + s 0 1 + s 1 1 + 2) / 4

(* [halfpel_sample] for a footprint known to lie inside [s], taps
   included: [o] indexes the integer sample, [w] is the row stride.
   Both callers check the footprint once per block, so the reads skip
   the bounds check. *)
let halfpel_interior (s : int array) ~w o ~fx ~fy =
  let a = Array.unsafe_get s o in
  if fx = 0 then if fy = 0 then a else (a + Array.unsafe_get s (o + w) + 1) / 2
  else if fy = 0 then (a + Array.unsafe_get s (o + 1) + 1) / 2
  else
    (a + Array.unsafe_get s (o + 1) + Array.unsafe_get s (o + w)
    + Array.unsafe_get s (o + w + 1) + 2)
    / 4

(* Sample [(x, y)] of a block displaced by half-pel [v] splits into the
   integer sample [(x + v.dx asr 1, y + v.dy asr 1)] and the fractional
   bits [v.dx land 1], [v.dy land 1] for every [(x, y)], because
   [2 * x] is even. The +1 taps widen the footprint by one sample on
   each axis with a fractional bit. *)
let extract_predicted_halfpel_into (p : Plane.t) ~x ~y v out =
  let ix = x + (v.dx asr 1) and iy = y + (v.dy asr 1) in
  let fx = v.dx land 1 and fy = v.dy land 1 in
  if inside p ~x:ix ~y:iy ~w:(block + fx) ~h:(block + fy) then begin
    let s = p.Plane.samples and w = p.Plane.width in
    for by = 0 to block - 1 do
      let o = ((iy + by) * w) + ix in
      for bx = 0 to block - 1 do
        out.((by * block) + bx) <-
          float_of_int (halfpel_interior s ~w (o + bx) ~fx ~fy)
      done
    done
  end
  else
    for by = 0 to block - 1 do
      for bx = 0 to block - 1 do
        out.((by * block) + bx) <-
          float_of_int
            (halfpel_sample p ~hx:((2 * (x + bx)) + v.dx)
               ~hy:((2 * (y + by)) + v.dy))
      done
    done

let extract_predicted_halfpel p ~x ~y v =
  let out = Array.make (block * block) 0. in
  extract_predicted_halfpel_into p ~x ~y v out;
  out

(* --- The search window ------------------------------------------------- *)

(* [reference] is a [stride]-wide square centred on the block at the
   fill's [centre]. Its margin of [range + 1] covers the +1 taps of a
   half-pel refinement around any integer vector within [range].
   [rows] tallies the rows the kernels sum, for the counter below. *)
type window = {
  range : int;
  margin : int;
  stride : int;
  current : int array;
  reference : int array;
  mutable rows : int;
}

let obs_sad_rows =
  Obs.counter ~help:"8-sample rows summed by the integer and half-pel searches"
    "codec_sad_rows_total" []

let window ~range =
  if range < 0 then invalid_arg "Motion.window: negative range";
  let margin = range + 1 in
  let stride = block + (2 * margin) in
  {
    range;
    margin;
    stride;
    current = Array.make (block * block) 0;
    reference = Array.make (stride * stride) 0;
    rows = 0;
  }

(* [n] samples of row [py] of [p] from column [x0] into [dst] at [o],
   each coordinate clamped as [Plane.get] clamps it: the row once, the
   columns as three runs, those left of the plane (its first sample),
   those on it (a copy) and those right of it (its last sample). *)
let fill_row (p : Plane.t) ~x0 ~py (dst : int array) ~o ~n =
  let s = p.Plane.samples and w = p.Plane.width and h = p.Plane.height in
  let row = (if py < 0 then 0 else if py >= h then h - 1 else py) * w in
  let left = if x0 >= 0 then 0 else if -x0 < n then -x0 else n in
  let stop = if w - x0 <= left then left else if w - x0 < n then w - x0 else n in
  let first = s.(row) and last = s.(row + w - 1) in
  for i = 0 to left - 1 do
    dst.(o + i) <- first
  done;
  for i = left to stop - 1 do
    dst.(o + i) <- s.(row + x0 + i)
  done;
  for i = stop to n - 1 do
    dst.(o + i) <- last
  done

let fill w ~(current : Plane.t) ~(reference : Plane.t) ~x ~y ~centre =
  for by = 0 to block - 1 do
    fill_row current ~x0:x ~py:(y + by) w.current ~o:(by * block) ~n:block
  done;
  let x0 = x + centre.dx - w.margin and y0 = y + centre.dy - w.margin in
  for wy = 0 to w.stride - 1 do
    fill_row reference ~x0 ~py:(y0 + wy) w.reference ~o:(wy * w.stride) ~n:w.stride
  done

(* [abs (a - b)] without a branch: SAD terms change sign at random, so
   a branch on the sign would be mispredicted about half the time. *)
let abs_diff a b =
  let d = a - b in
  let sign = d asr (Sys.int_size - 1) in
  (d lxor sign) - sign

(* The window kernels read without bounds checks, so each call checks
   once that its vector is within [reach] on both axes. *)
let check_reach ~reach a b =
  if a < -reach || a > reach || b < -reach || b > reach then
    invalid_arg "Motion: vector outside the search window"

(* Window offset of the integer sample under half-pel vector [v]. The
   window reaches [2 range + 1] half-pels each way, +1 taps included. *)
let halfpel_origin w v =
  check_reach ~reach:((2 * w.range) + 1) v.dx v.dy;
  ((w.margin + (v.dy asr 1)) * w.stride) + w.margin + (v.dx asr 1)

(* SAD of the current block against the window under half-pel vector
   [v], summed row by row; stops after the first row whose running sum
   exceeds [bound]. A stopped sum is therefore > [bound], and a sum
   that stays <= [bound] is exact. Counts its rows into [w.rows]. *)
let sad_halfpel_bounded ~bound w v =
  let o = halfpel_origin w v in
  let fx = v.dx land 1 and fy = v.dy land 1 in
  let cs = w.current and rs = w.reference and ws = w.stride in
  let acc = ref 0 and by = ref 0 in
  while !by < block && !acc <= bound do
    let c = !by * block and r = o + (!by * ws) in
    for bx = 0 to block - 1 do
      acc :=
        !acc
        + abs_diff (Array.unsafe_get cs (c + bx))
            (halfpel_interior rs ~w:ws (r + bx) ~fx ~fy)
    done;
    incr by
  done;
  w.rows <- w.rows + !by;
  !acc

(* The integer-vector case of [sad_halfpel_bounded], without the
   interpolation. *)
let sad_bounded ~bound w ~dx ~dy =
  check_reach ~reach:w.range dx dy;
  let o = ((w.margin + dy) * w.stride) + w.margin + dx in
  let cs = w.current and rs = w.reference and ws = w.stride in
  let acc = ref 0 and by = ref 0 in
  while !by < block && !acc <= bound do
    let c = !by * block and r = o + (!by * ws) in
    for bx = 0 to block - 1 do
      acc :=
        !acc + abs_diff (Array.unsafe_get cs (c + bx)) (Array.unsafe_get rs (r + bx))
    done;
    incr by
  done;
  w.rows <- w.rows + !by;
  !acc

let window_sad w v = sad_bounded ~bound:max_int w ~dx:v.dx ~dy:v.dy

(* Raster order with the (sad, norm) tie-break, starting from the zero
   vector at [zero_sad]. The zero vector is not summed again: its SAD
   can never beat the running best, which starts there and only falls,
   and at a tie its norm 0 never beats the best's. The running best
   bounds each candidate's partial SAD: a candidate stopped early has a
   sum strictly above the best, so it could neither win nor tie. *)
let window_search w ~zero_sad =
  w.rows <- 0;
  let range = w.range in
  let best = ref zero and best_sad = ref zero_sad in
  for dy = -range to range do
    for dx = -range to range do
      if dx <> 0 || dy <> 0 then begin
        let s = sad_bounded ~bound:!best_sad w ~dx ~dy in
        if s < !best_sad || (s = !best_sad && abs dx + abs dy < vector_norm !best)
        then begin
          best := { dx; dy };
          best_sad := s
        end
      end
    done
  done;
  Obs.Metrics.Counter.incr obs_sad_rows ~by:w.rows;
  (!best, !best_sad)

let window_refine w best_integer =
  w.rows <- 0;
  let centre = to_halfpel best_integer in
  let best = ref centre
  and best_sad = ref (sad_halfpel_bounded ~bound:max_int w centre) in
  for dy = -1 to 1 do
    for dx = -1 to 1 do
      if dx <> 0 || dy <> 0 then begin
        let v = { dx = centre.dx + dx; dy = centre.dy + dy } in
        let s = sad_halfpel_bounded ~bound:!best_sad w v in
        if s < !best_sad then begin
          best := v;
          best_sad := s
        end
      end
    done
  done;
  Obs.Metrics.Counter.incr obs_sad_rows ~by:w.rows;
  (!best, !best_sad)

let window_predicted_halfpel_into w v out =
  let o = halfpel_origin w v in
  let fx = v.dx land 1 and fy = v.dy land 1 in
  let rs = w.reference and ws = w.stride in
  for by = 0 to block - 1 do
    let r = o + (by * ws) in
    for bx = 0 to block - 1 do
      out.((by * block) + bx) <- float_of_int (halfpel_interior rs ~w:ws (r + bx) ~fx ~fy)
    done
  done

(* The plane-level kernels: a window centred on the block displaced by
   an integer vector, just wide enough for the one call. *)

let sad current reference ~x ~y v =
  let w = window ~range:0 in
  fill w ~current ~reference ~x ~y ~centre:v;
  window_sad w zero

let search ~range ~current ~reference ~x ~y () =
  let w = window ~range in
  fill w ~current ~reference ~x ~y ~centre:zero;
  window_search w ~zero_sad:(window_sad w zero)

let sad_halfpel current reference ~x ~y v =
  let w = window ~range:0 in
  fill w ~current ~reference ~x ~y ~centre:{ dx = v.dx asr 1; dy = v.dy asr 1 };
  sad_halfpel_bounded ~bound:max_int w { dx = v.dx land 1; dy = v.dy land 1 }

let refine_halfpel ~current ~reference ~x ~y best_integer =
  let w = window ~range:0 in
  fill w ~current ~reference ~x ~y ~centre:best_integer;
  let v, s = window_refine w zero in
  let offset = to_halfpel best_integer in
  ({ dx = v.dx + offset.dx; dy = v.dy + offset.dy }, s)

let chroma_vector v = { dx = v.dx asr 2; dy = v.dy asr 2 }

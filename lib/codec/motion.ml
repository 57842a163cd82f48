type vector = { dx : int; dy : int }

let zero = { dx = 0; dy = 0 }

let block = 8

let vector_norm v = abs v.dx + abs v.dy

(* The [w]x[h] footprint at [(x, y)] lies wholly inside [p]. *)
let inside (p : Plane.t) ~x ~y ~w ~h =
  x >= 0 && y >= 0 && x + w <= p.Plane.width && y + h <= p.Plane.height

(* The codec places 8-aligned blocks in planes padded to multiples of
   8, so a block that overhangs its plane is a caller's error. *)
let check_inside (p : Plane.t) ~x ~y =
  if not (inside p ~x ~y ~w:block ~h:block) then
    invalid_arg "Motion: block outside the plane"

let extract_block_into (p : Plane.t) ~x ~y out =
  check_inside p ~x ~y;
  let s = p.Plane.samples and w = p.Plane.width in
  for by = 0 to block - 1 do
    let o = ((y + by) * w) + x in
    for bx = 0 to block - 1 do
      out.((by * block) + bx) <- float_of_int s.(o + bx)
    done
  done

let extract_block p ~x ~y =
  let out = Array.make (block * block) 0. in
  extract_block_into p ~x ~y out;
  out

let store_block (p : Plane.t) ~x ~y samples =
  check_inside p ~x ~y;
  let s = p.Plane.samples and w = p.Plane.width in
  for by = 0 to block - 1 do
    let o = ((y + by) * w) + x in
    for bx = 0 to block - 1 do
      s.(o + bx) <- int_of_float (Float.round samples.((by * block) + bx))
    done
  done

let to_halfpel v = { dx = 2 * v.dx; dy = 2 * v.dy }

(* The bilinear half-pel sample at [o] in [s], a buffer of row stride
   [w] that holds the +1 taps the fractional bits [fx], [fy] read.
   Every caller checks the whole footprint once per block, so the
   reads skip the bounds check. *)
let halfpel_interior (s : int array) ~w o ~fx ~fy =
  let a = Array.unsafe_get s o in
  if fx = 0 then if fy = 0 then a else (a + Array.unsafe_get s (o + w) + 1) / 2
  else if fy = 0 then (a + Array.unsafe_get s (o + 1) + 1) / 2
  else
    (a + Array.unsafe_get s (o + 1) + Array.unsafe_get s (o + w)
    + Array.unsafe_get s (o + w + 1) + 2)
    / 4

(* The 8x8 prediction whose top-left integer sample is [o] in [s]. *)
let halfpel_block (s : int array) ~w o ~fx ~fy out =
  for by = 0 to block - 1 do
    let r = o + (by * w) in
    for bx = 0 to block - 1 do
      out.((by * block) + bx) <- float_of_int (halfpel_interior s ~w (r + bx) ~fx ~fy)
    done
  done

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
   each coordinate clamped to the nearest edge: the row once, the
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
  halfpel_block w.reference ~w:w.stride (halfpel_origin w v) ~fx:(v.dx land 1)
    ~fy:(v.dy land 1) out

(* Sample [(x + bx, y + by)] of a block displaced by [(hx, hy)]
   half-pels splits into the integer sample [(ix + bx, iy + by)] and
   the fractional bits [(fx, fy)], the same for every sample because
   [2 (x + bx)] is even. The +1 taps widen the footprint by one sample
   on each axis with a fractional bit. A footprint inside the plane is
   read in place; any other is copied into the window first, each
   coordinate clamped as [fill] clamps it. *)
let predict w ~(reference : Plane.t) ~x ~y ~hx ~hy out =
  let ix = x + (hx asr 1) and iy = y + (hy asr 1) in
  let fx = hx land 1 and fy = hy land 1 in
  let pw = reference.Plane.width in
  if inside reference ~x:ix ~y:iy ~w:(block + fx) ~h:(block + fy) then
    halfpel_block reference.Plane.samples ~w:pw ((iy * pw) + ix) ~fx ~fy out
  else begin
    for wy = 0 to block + fy - 1 do
      fill_row reference ~x0:ix ~py:(iy + wy) w.reference ~o:(wy * w.stride)
        ~n:(block + fx)
    done;
    halfpel_block w.reference ~w:w.stride 0 ~fx ~fy out
  end

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

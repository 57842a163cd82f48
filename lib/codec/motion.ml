type vector = { dx : int; dy : int }

let zero = { dx = 0; dy = 0 }

let block = 8

(* The [w]x[h] footprint at [(x, y)] lies wholly inside [p]. *)
let inside (p : Plane.t) ~x ~y ~w ~h =
  x >= 0 && y >= 0 && x + w <= p.Plane.width && y + h <= p.Plane.height

(* SAD of the block at [(x, y)] against the reference displaced by
   [(dx, dy)], summed row by row; stops after the first row whose
   running sum exceeds [bound]. A stopped sum is therefore > [bound],
   and a sum that stays <= [bound] is exact. *)
let sad_bounded ~bound (current : Plane.t) (reference : Plane.t) ~x ~y ~dx ~dy =
  let rx = x + dx and ry = y + dy in
  let acc = ref 0 and by = ref 0 in
  if inside current ~x ~y ~w:block ~h:block
     && inside reference ~x:rx ~y:ry ~w:block ~h:block
  then begin
    let cs = current.Plane.samples and rs = reference.Plane.samples in
    let cw = current.Plane.width and rw = reference.Plane.width in
    while !by < block && !acc <= bound do
      let c = ((y + !by) * cw) + x and r = ((ry + !by) * rw) + rx in
      for bx = 0 to block - 1 do
        acc := !acc + abs (cs.(c + bx) - rs.(r + bx))
      done;
      incr by
    done
  end
  else
    while !by < block && !acc <= bound do
      for bx = 0 to block - 1 do
        let c = Plane.get current ~x:(x + bx) ~y:(y + !by) in
        let r = Plane.get reference ~x:(rx + bx) ~y:(ry + !by) in
        acc := !acc + abs (c - r)
      done;
      incr by
    done;
  !acc

let sad current reference ~x ~y v =
  sad_bounded ~bound:max_int current reference ~x ~y ~dx:v.dx ~dy:v.dy

let vector_norm v = abs v.dx + abs v.dy

(* Raster order with the (sad, norm) tie-break. The running best bounds
   each candidate's partial SAD: a candidate stopped early has a sum
   strictly above the best, so it could neither win nor tie. *)
let search ?(range = 7) ~current ~reference ~x ~y () =
  let best = ref zero and best_sad = ref (sad current reference ~x ~y zero) in
  for dy = -range to range do
    for dx = -range to range do
      let s = sad_bounded ~bound:!best_sad current reference ~x ~y ~dx ~dy in
      if s < !best_sad
         || (s = !best_sad && abs dx + abs dy < vector_norm !best)
      then begin
        best := { dx; dy };
        best_sad := s
      end
    done
  done;
  (!best, !best_sad)

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

(* [halfpel_sample] for a footprint known to be inside the plane: [o]
   indexes the integer sample, [w] is the row stride. *)
let halfpel_interior s ~w o ~fx ~fy =
  if fx = 0 then if fy = 0 then s.(o) else (s.(o) + s.(o + w) + 1) / 2
  else if fy = 0 then (s.(o) + s.(o + 1) + 1) / 2
  else (s.(o) + s.(o + 1) + s.(o + w) + s.(o + w + 1) + 2) / 4

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

(* Half-pel SAD with the same row-wise early exit as [sad_bounded]. *)
let sad_halfpel_bounded ~bound (current : Plane.t) (reference : Plane.t) ~x ~y v =
  let ix = x + (v.dx asr 1) and iy = y + (v.dy asr 1) in
  let fx = v.dx land 1 and fy = v.dy land 1 in
  let acc = ref 0 and by = ref 0 in
  if inside current ~x ~y ~w:block ~h:block
     && inside reference ~x:ix ~y:iy ~w:(block + fx) ~h:(block + fy)
  then begin
    let cs = current.Plane.samples and rs = reference.Plane.samples in
    let cw = current.Plane.width and rw = reference.Plane.width in
    while !by < block && !acc <= bound do
      let c = ((y + !by) * cw) + x and r = ((iy + !by) * rw) + ix in
      for bx = 0 to block - 1 do
        acc :=
          !acc + abs (cs.(c + bx) - halfpel_interior rs ~w:rw (r + bx) ~fx ~fy)
      done;
      incr by
    done
  end
  else
    while !by < block && !acc <= bound do
      for bx = 0 to block - 1 do
        let c = Plane.get current ~x:(x + bx) ~y:(y + !by) in
        let r =
          halfpel_sample reference ~hx:((2 * (x + bx)) + v.dx)
            ~hy:((2 * (y + !by)) + v.dy)
        in
        acc := !acc + abs (c - r)
      done;
      incr by
    done;
  !acc

let sad_halfpel current reference ~x ~y v =
  sad_halfpel_bounded ~bound:max_int current reference ~x ~y v

let refine_halfpel ~current ~reference ~x ~y best_integer =
  let centre = to_halfpel best_integer in
  let best = ref centre and best_sad = ref (sad_halfpel current reference ~x ~y centre) in
  for dy = -1 to 1 do
    for dx = -1 to 1 do
      if dx <> 0 || dy <> 0 then begin
        let v = { dx = centre.dx + dx; dy = centre.dy + dy } in
        let s = sad_halfpel_bounded ~bound:!best_sad current reference ~x ~y v in
        if s < !best_sad then begin
          best := v;
          best_sad := s
        end
      end
    done
  done;
  (!best, !best_sad)

let chroma_vector v = { dx = v.dx asr 2; dy = v.dy asr 2 }

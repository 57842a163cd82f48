let check levels =
  if Array.length levels <> 64 then invalid_arg "Zigzag: need 64 levels"

(* Walked straight off [Zigzag.scan_order], like [bit_cost]: a first
   pass counts the non-zero levels, a second writes each one's
   (zero-run, level) pair, so no reordered copy and no pair list is
   built. *)
let write_block w levels =
  check levels;
  let nnz = ref 0 in
  for k = 0 to 63 do
    if levels.(Zigzag.scan_order.(k)) <> 0 then incr nnz
  done;
  Golomb.write_ue w !nnz;
  let run = ref 0 in
  for k = 0 to 63 do
    let level = levels.(Zigzag.scan_order.(k)) in
    if level = 0 then incr run
    else begin
      Golomb.write_ue w !run;
      Golomb.write_se w level;
      run := 0
    end
  done

(* Levels land straight at their row-major index: no zig-zag copy. *)
let read_block r levels =
  let nnz = Golomb.read_ue r in
  if nnz < 0 then invalid_arg "Coeff.read_block: negative coefficient count";
  if nnz > 64 then invalid_arg "Coeff.read_block: too many coefficients";
  Array.fill levels 0 64 0;
  let pos = ref 0 in
  for _ = 1 to nnz do
    let run = Golomb.read_ue r in
    let level = Golomb.read_se r in
    if run > 63 - !pos then invalid_arg "Coeff.read_block: run past end of block";
    if level = 0 then invalid_arg "Coeff.read_block: zero level";
    let k = !pos + run in
    levels.(Zigzag.scan_order.(k)) <- level;
    pos := k + 1
  done

(* The cost of [write_block], walked straight off [Zigzag.scan_order]
   with no reordered copy and no pair list. *)
let bit_cost levels =
  check levels;
  let bits = ref 0 and nnz = ref 0 and run = ref 0 in
  for k = 0 to 63 do
    let level = levels.(Zigzag.scan_order.(k)) in
    if level = 0 then incr run
    else begin
      let z = if level > 0 then (2 * level) - 1 else -2 * level in
      bits := !bits + Golomb.ue_bit_length !run + Golomb.ue_bit_length z;
      incr nnz;
      run := 0
    end
  done;
  Golomb.ue_bit_length !nnz + !bits

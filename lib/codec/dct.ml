let block_size = 8

let n = block_size

(* cosine.(u).(x) = alpha(u) * cos((2x+1) u pi / 16); rows of the 1-D
   orthonormal DCT matrix. *)
let cosine =
  Array.init n (fun u ->
      let alpha = if u = 0 then sqrt (1. /. float_of_int n) else sqrt (2. /. float_of_int n) in
      Array.init n (fun x ->
          alpha
          *. cos (((2. *. float_of_int x) +. 1.) *. float_of_int u *. Float.pi
                  /. (2. *. float_of_int n))))

(* The same matrix flattened row-major for the forward pass, and its
   transpose for the inverse: [forward_matrix.(u * n + x) =
   cosine.(u).(x)], [inverse_matrix.(u * n + x) = cosine.(x).(u)]. *)
let forward_matrix = Array.init (n * n) (fun i -> cosine.(i / n).(i mod n))

let inverse_matrix = Array.init (n * n) (fun i -> cosine.(i mod n).(i / n))

let check block =
  if Array.length block <> n * n then invalid_arg "Dct: block must have 64 samples"

(* Separable transform: rows into [tmp], then columns into [out]. Each
   sum starts from [0.] and accumulates in index order. [out] may be
   [block]: the row pass reads all of [block] before the column pass
   writes. *)
let transform m block ~tmp out =
  (* Rows. *)
  for y = 0 to n - 1 do
    for u = 0 to n - 1 do
      let acc = ref 0. in
      for x = 0 to n - 1 do
        acc := !acc +. (m.((u * n) + x) *. block.((y * n) + x))
      done;
      tmp.((y * n) + u) <- !acc
    done
  done;
  (* Columns. *)
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      let acc = ref 0. in
      for y = 0 to n - 1 do
        acc := !acc +. (m.((v * n) + y) *. tmp.((y * n) + u))
      done;
      out.((v * n) + u) <- !acc
    done
  done

(* The inverse of [transform inverse_matrix] that skips the rows of
   [coeffs] whose bit in [rows] is clear. Such a row is all ±0, so each
   of its terms is ±0; a sum that starts from [0.] is never -0, and
   adding ±0 to it changes no bit. Skipping those terms, in both
   passes, therefore leaves every sum exactly as the dense transform
   computes it. The column pass runs row-outer so that each output
   still accumulates its terms in row order. [out] may be [coeffs]:
   the row pass reads all of [coeffs] before the column pass writes. *)
let inverse_rows ~rows coeffs ~tmp out =
  let m = inverse_matrix in
  for y = 0 to n - 1 do
    if rows land (1 lsl y) <> 0 then
      for u = 0 to n - 1 do
        let acc = ref 0. in
        for x = 0 to n - 1 do
          acc := !acc +. (m.((u * n) + x) *. coeffs.((y * n) + x))
        done;
        tmp.((y * n) + u) <- !acc
      done
  done;
  Array.fill out 0 (n * n) 0.;
  for y = 0 to n - 1 do
    if rows land (1 lsl y) <> 0 then
      for v = 0 to n - 1 do
        let c = m.((v * n) + y) in
        for u = 0 to n - 1 do
          out.((v * n) + u) <- out.((v * n) + u) +. (c *. tmp.((y * n) + u))
        done
      done
  done

let obs_ops =
  Obs.counter ~help:"8x8 DCT transforms performed (forward + inverse)"
    "codec_dct_ops_total" []

let forward_into block ~tmp out =
  check block;
  Obs.Metrics.Counter.incr obs_ops;
  transform forward_matrix block ~tmp out

let forward block =
  let out = Array.make (n * n) 0. in
  forward_into block ~tmp:(Array.make (n * n) 0.) out;
  out

let inverse_into ~rows coeffs ~tmp out =
  check coeffs;
  Obs.Metrics.Counter.incr obs_ops;
  inverse_rows ~rows coeffs ~tmp out

let inverse coeffs =
  let out = Array.make (n * n) 0. in
  inverse_into ~rows:0xff coeffs ~tmp:(Array.make (n * n) 0.) out;
  out

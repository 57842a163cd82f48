type scratch = {
  levels : int array;
  prediction : float array;
  mid_grey : float array;
  coeffs : float array;
  tmp : float array;
}

let scratch () =
  {
    levels = Array.make 64 0;
    prediction = Array.make 64 0.;
    mid_grey = Array.make 64 128.;
    coeffs = Array.make 64 0.;
    tmp = Array.make 64 0.;
  }

let code_intra q kind samples =
  let centred = Array.map (fun s -> s -. 128.) samples in
  Quant.quantise q kind (Dct.forward centred)

let code_inter q kind ~samples ~prediction =
  let residual = Array.init 64 (fun i -> samples.(i) -. prediction.(i)) in
  Quant.quantise q kind (Dct.forward residual)

(* IEEE addition commutes, so over [s.mid_grey] the sum is exactly
   [residual + 128.], the intra reconstruction. *)
let reconstruct s q kind ~prediction levels (plane : Plane.t) ~x ~y =
  let c = s.coeffs in
  let rows = Quant.dequantise q kind levels c in
  Dct.inverse_into ~rows c ~tmp:s.tmp c;
  for i = 0 to 63 do
    c.(i) <- prediction.(i) +. c.(i)
  done;
  Motion.store_block plane ~x ~y c

type t = { r : int; g : int; b : int }

let clamp_channel c = if c < 0 then 0 else if c > 255 then 255 else c

let v r g b = { r = clamp_channel r; g = clamp_channel g; b = clamp_channel b }

let black = { r = 0; g = 0; b = 0 }
let white = { r = 255; g = 255; b = 255 }

let gray l =
  let l = clamp_channel l in
  { r = l; g = l; b = l }

(* BT.601 weights; the integer path uses a 16-bit fixed-point form so that
   gray levels map exactly to themselves (the weights sum to 65536). *)
let wr = 19595 (* round (0.299 * 65536) *)
let wg = 38470 (* round (0.587 * 65536) + 1 so that wr+wg+wb = 65536 *)
let wb = 7471 (* round (0.114 * 65536) *)

let luminance_rgb r g b = ((wr * r) + (wg * g) + (wb * b) + 32768) lsr 16

let luminance { r; g; b } = luminance_rgb r g b

let scale k { r; g; b } =
  assert (k >= 0.);
  let s c = clamp_channel (int_of_float ((k *. float_of_int c) +. 0.5)) in
  { r = s r; g = s g; b = s b }

let add d { r; g; b } =
  { r = clamp_channel (r + d); g = clamp_channel (g + d); b = clamp_channel (b + d) }

let is_clipped_by_scale k { r; g; b } =
  let over c = k *. float_of_int c > 255.5 in
  over r || over g || over b

let equal a b = a.r = b.r && a.g = b.g && a.b = b.b

let pp ppf { r; g; b } = Format.fprintf ppf "#%02x%02x%02x" r g b

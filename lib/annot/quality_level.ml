type t = Lossless | Loss_5 | Loss_10 | Loss_15 | Loss_20 | Custom of float

let allowed_loss = function
  | Lossless -> 0.
  | Loss_5 -> 0.05
  | Loss_10 -> 0.10
  | Loss_15 -> 0.15
  | Loss_20 -> 0.20
  | Custom f ->
    if f < 0. || f > 1. then invalid_arg "Quality_level: custom loss out of [0, 1]";
    f

let standard_grid = [ Lossless; Loss_5; Loss_10; Loss_15; Loss_20 ]

let of_loss = function
  | 0. -> Lossless
  | 0.05 -> Loss_5
  | 0.10 -> Loss_10
  | 0.15 -> Loss_15
  | 0.20 -> Loss_20
  | f -> Custom f

let of_percent p =
  if p >= 0. && p <= 100. then Ok (of_loss (p /. 100.))
  else Error (Printf.sprintf "quality %g%% is outside 0-100%%" p)

let of_permille p =
  if p > 1000 then Error (Printf.sprintf "quality %d permille exceeds 1000" p)
  else if p < 0 then Error (Printf.sprintf "quality %d permille is negative" p)
  else Ok (of_loss (float_of_int p /. 1000.))

let label t =
  match t with
  | Lossless -> "0%"
  | Loss_5 -> "5%"
  | Loss_10 -> "10%"
  | Loss_15 -> "15%"
  | Loss_20 -> "20%"
  | Custom f -> Printf.sprintf "%.1f%%" (f *. 100.)

let compare a b = Float.compare (allowed_loss a) (allowed_loss b)

let pp ppf t = Format.pp_print_string ppf (label t)

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

let of_percent p =
  match p with
  | 0. -> Lossless
  | 5. -> Loss_5
  | 10. -> Loss_10
  | 15. -> Loss_15
  | 20. -> Loss_20
  | p -> Custom (p /. 100.)

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

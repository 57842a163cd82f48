type t =
  | Annotated of Annotation.Scene_detect.params
  | Annotated_per_frame
  | Full_backlight
  | Static_dim of int
  | Client_analysis of { cpu_overhead_fraction : float }
  | History_prediction of { window : int }
  | Qabs_smoothed of { max_step : int }

let name = function
  | Annotated _ -> "annotated"
  | Annotated_per_frame -> "annotated-per-frame"
  | Full_backlight -> "full-backlight"
  | Static_dim r -> Printf.sprintf "static-%d" r
  | Client_analysis _ -> "client-analysis"
  | History_prediction { window } -> Printf.sprintf "history-%d" window
  | Qabs_smoothed { max_step } -> Printf.sprintf "qabs-step-%d" max_step

let cpu_overhead_fraction = function
  | Client_analysis { cpu_overhead_fraction } -> cpu_overhead_fraction
  | Qabs_smoothed _ ->
    (* Per-frame histogram + solve on the device, like client
       analysis. *)
    0.15
  | Annotated _ | Annotated_per_frame | Full_backlight | Static_dim _
  | History_prediction _ ->
    0.

let is_clairvoyant = function
  | Annotated _ | Annotated_per_frame -> true
  | Full_backlight | Static_dim _ | Client_analysis _ | History_prediction _
  | Qabs_smoothed _ ->
    false

type frame_type = I_frame | P_frame

type params = { qp : int; gop : int; search_range : int }

let default_params = { qp = 8; gop = 12; search_range = 4 }

let magic = "MVC1"

let version = 3

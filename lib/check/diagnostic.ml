type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  file : string;
  line : int;
  col : int;
  message : string;
}

let v ~code ~severity ~file ?(line = 0) ?(col = 0) message =
  { code; severity; file; line; col; message }

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let is_error d = d.severity = Error

let errors ds = List.length (List.filter is_error ds)

let warnings ds = List.length (List.filter (fun d -> d.severity = Warning) ds)

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.code b.code in
        if c <> 0 then c else String.compare a.message b.message

let pp ppf d =
  Format.fprintf ppf "%s:%d:%d: %s %s: %s" d.file d.line d.col
    (severity_name d.severity) d.code d.message

let to_json d =
  Obs.Json.Obj
    [
      ("file", Obs.Json.String d.file);
      ("line", Obs.Json.Int d.line);
      ("col", Obs.Json.Int d.col);
      ("code", Obs.Json.String d.code);
      ("severity", Obs.Json.String (severity_name d.severity));
      ("message", Obs.Json.String d.message);
    ]

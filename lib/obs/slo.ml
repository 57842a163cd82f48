type stat =
  | Quantile of float
  | Rate_per_s
  | Ratio_per_frame
  | Last

type op = Lt | Le | Gt | Ge | Eq

type rule = {
  metric : string;
  stat : stat;
  op : op;
  threshold : float;
  source : string;
}

let op_name = function Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "=="

let holds op ~value ~threshold =
  match op with
  | Lt -> value < threshold
  | Le -> value <= threshold
  | Gt -> value > threshold
  | Ge -> value >= threshold
  | Eq -> value = threshold

let strip_suffix ~suffix s =
  if String.length s > String.length suffix
     && String.ends_with ~suffix s
  then Some (String.sub s 0 (String.length s - String.length suffix))
  else None

(* [name_p99] / [name_p999] → quantile digits scaled by their length,
   so p5 = 0.5, p95 = 0.95, p999 = 0.999. *)
let split_quantile s =
  match String.rindex_opt s '_' with
  | Some i
    when i + 2 < String.length s
         && s.[i + 1] = 'p'
         && String.for_all
              (fun c -> c >= '0' && c <= '9')
              (String.sub s (i + 2) (String.length s - i - 2)) ->
    let digits = String.sub s (i + 2) (String.length s - i - 2) in
    let scale = Float.pow 10. (float_of_int (String.length digits)) in
    Some (String.sub s 0 i, float_of_string digits /. scale)
  | _ -> None

let selector s =
  match split_quantile s with
  | Some (metric, q) -> (metric, Quantile q)
  | None -> (
    match strip_suffix ~suffix:"_per_s" s with
    | Some metric -> (metric, Rate_per_s)
    | None -> (
      match strip_suffix ~suffix:"_rate" s with
      | Some metric -> (metric, Ratio_per_frame)
      | None -> (s, Last)))

let parse_line line =
  let body =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  match
    String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) body)
    |> List.filter (fun tok -> tok <> "")
  with
  | [] -> Ok None
  | [ sel; op; threshold ] -> (
    let op =
      match op with
      | "<" -> Ok Lt
      | "<=" -> Ok Le
      | ">" -> Ok Gt
      | ">=" -> Ok Ge
      | "==" | "=" -> Ok Eq
      | other -> Error (Printf.sprintf "unknown operator %S" other)
    in
    match (op, float_of_string_opt threshold) with
    | Error e, _ -> Error e
    | Ok _, None -> Error (Printf.sprintf "bad threshold %S" threshold)
    | Ok op, Some threshold ->
      let metric, stat = selector sel in
      if metric = "" then Error (Printf.sprintf "empty metric in %S" sel)
      else
        Ok
          (Some
             {
               metric;
               stat;
               op;
               threshold;
               source = Printf.sprintf "%s %s %s" sel (op_name op)
                   (String.trim (Printf.sprintf "%g" threshold));
             }))
  | toks ->
    Error
      (Printf.sprintf "expected `metric op threshold`, got %d tokens"
         (List.length toks))

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match parse_line line with
      | Ok None -> go (n + 1) acc rest
      | Ok (Some rule) -> go (n + 1) (rule :: acc) rest
      | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  go 1 [] lines

let load ~path = Wire.Keyvalue.load parse ~path

let of_string_exn s =
  match parse_line s with
  | Ok (Some rule) -> rule
  | Ok None -> invalid_arg ("Obs.Slo.of_string_exn: empty rule: " ^ s)
  | Error e -> invalid_arg ("Obs.Slo.of_string_exn: " ^ e)

let defaults ~quality =
  [
    of_string_exn "streaming_frame_latency_seconds_p99 < 0.25";
    of_string_exn (Printf.sprintf "annot_clip_fraction_p95 <= %.6g" quality);
    of_string_exn "deadline_miss_rate < 0.05";
    of_string_exn "backlight_switches_per_s < 6";
  ]

let pp ppf r = Format.pp_print_string ppf r.source

exception Invalid of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Invalid msg)) fmt

let iter text f =
  List.iteri
    (fun i line ->
      let line_no = i + 1 in
      let body =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      if String.trim body <> "" then
        match String.index_opt body '=' with
        | None -> fail "line %d: expected key = value" line_no
        | Some i ->
          f ~line:line_no
            (String.trim (String.sub body 0 i))
            (String.trim (String.sub body (i + 1) (String.length body - i - 1))))
    (String.split_on_char '\n' text)

let unknown_key ~line key = fail "line %d: unknown key %S" line key

let float key value =
  match float_of_string_opt value with
  | Some f -> f
  | None -> fail "%s: bad number %S" key value

let int key value =
  match int_of_string_opt value with
  | Some i -> i
  | None -> fail "%s: bad integer %S" key value

let load parse ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

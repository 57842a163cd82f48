module Diagnostic = Check.Diagnostic

type rule = { code : string; title : string; lib_only : bool }

let rules =
  [
    { code = "L001"; title = "ambient wall-clock read"; lib_only = false };
    { code = "L002"; title = "ambient randomness"; lib_only = false };
    { code = "L003"; title = "hash-order-dependent iteration"; lib_only = false };
    { code = "L004"; title = "exception swallowed by wildcard"; lib_only = false };
    { code = "L005"; title = "direct console output"; lib_only = true };
    { code = "L006"; title = "library module without .mli"; lib_only = true };
    { code = "L007"; title = "exact float (in)equality"; lib_only = false };
    { code = "L008"; title = "malformed or bare lint suppression"; lib_only = false };
    { code = "L009"; title = "domain spawned outside lib/par"; lib_only = false };
    { code = "L010"; title = "meter sampled outside lib/power"; lib_only = false };
    {
      code = "L011";
      title = "journal emission outside sanctioned hooks";
      lib_only = false;
    };
    {
      code = "L012";
      title = "resilience state mutated outside sanctioned hooks";
      lib_only = false;
    };
  ]

(* --- identifier tables ------------------------------------------------- *)

let clock_idents =
  [ "Unix.gettimeofday"; "Unix.time"; "Sys.time"; "Monotonic_clock.now" ]

let random_idents =
  [
    "Random.self_init"; "Random.int"; "Random.full_int"; "Random.float";
    "Random.bool"; "Random.bits"; "Random.int32"; "Random.int64";
    "Random.nativeint";
  ]

let print_idents =
  [
    "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf";
    "Format.print_string"; "Format.print_newline"; "print_endline";
    "print_string"; "print_newline"; "print_char"; "print_int"; "print_float";
    "print_bytes"; "prerr_endline"; "prerr_string"; "prerr_newline";
    "prerr_char"; "prerr_int"; "prerr_float"; "prerr_bytes";
  ]

let hashtbl_iterators = [ "Hashtbl.fold"; "Hashtbl.iter" ]

(* Raw parallelism primitives. Only Par.Pool may touch these: ad-hoc
   domains bypass the pool's deterministic chunking and reduction
   order, which is the whole byte-identity argument. *)
let domain_idents = [ "Domain.spawn" ]

(* Power.Meter sampling entry points. Outside lib/power and lib/obs,
   ad-hoc metering produces joules the energy profiler never sees —
   all accounting is supposed to flow through the instrumented sites
   (the meter's own publish hook, the session attribution block). *)
let meter_idents =
  [
    "Power.Meter.create"; "Power.Meter.measure"; "Power.Meter.measure_trace";
    "Meter.create"; "Meter.measure"; "Meter.measure_trace";
  ]

(* Decision-journal emission points. The journal's value is that its
   event stream is a closed vocabulary recorded from audited hook
   sites (the diff/explain tooling reasons about what each event
   means); scattering [record] calls around the tree would turn it
   back into a printf log. *)
let journal_idents =
  [
    "Obs.Journal.record"; "Journal.record"; "Obs.Journal.record_in";
    "Journal.record_in";
  ]

(* The sanctioned hook sites outside lib/obs, by path suffix. The
   lib/resilience files journal their own decisions (ladder steps,
   breaker transitions, bulkhead verdicts, watchdog trips) — those
   events are the subsystem's whole point, so its modules are hook
   sites too. *)
let journal_hook_files =
  [
    "lib/streaming/session.ml"; "lib/streaming/playback.ml";
    "lib/streaming/transport.ml"; "lib/streaming/fault.ml";
    "lib/annot/annotator.ml"; "lib/resilience/breaker.ml";
    "lib/resilience/degrade.ml"; "lib/resilience/bulkhead.ml";
    "lib/fleet/scheduler.ml";
  ]

(* Resilience state transitions. Breaker trip/probe accounting and
   ladder-depth notes are control-plane decisions the journal must be
   able to replay; mutating them from arbitrary code would let a
   caller bend a breaker open (or mark rungs never actually served)
   without leaving an auditable trace. Only lib/resilience itself and
   the reviewed streaming integration points may call these. *)
let resilience_mut_idents =
  [
    "Resilience.Breaker.allow"; "Resilience.Breaker.record";
    "Breaker.allow"; "Breaker.record"; "Resilience.Degrade.note";
    "Degrade.note";
  ]

(* The sanctioned resilience integration sites, by path suffix. *)
let resilience_hook_files =
  [
    "lib/streaming/session.ml"; "lib/streaming/transport.ml";
    "lib/streaming/server.ml";
  ]

let sorters =
  [
    "List.sort"; "List.sort_uniq"; "List.stable_sort"; "List.fast_sort";
    "Array.sort"; "Array.stable_sort";
  ]

let float_arith = [ "+."; "-."; "*."; "/."; "**"; "~-." ]

let float_returning =
  [
    "float_of_int"; "Float.of_int"; "Float.abs"; "Float.max"; "Float.min";
    "Float.pow"; "Float.round"; "Float.rem"; "sqrt"; "exp"; "log"; "log10";
    "sin"; "cos"; "tan"; "atan"; "atan2"; "floor"; "ceil";
  ]

(* --- AST helpers ------------------------------------------------------- *)

let rec lid_parts = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> lid_parts l @ [ s ]
  | Longident.Lapply _ -> []

let ident_name (e : Parsetree.expression) =
  match e.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> (
    match lid_parts txt with [] -> None | parts -> Some (String.concat "." parts))
  | _ -> None

let line_col (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

(* Syntactic evidence that an expression is a float: literal, float
   arithmetic, or a function everyone knows returns float. A linter
   without types cannot do better; the rule is documented as a
   heuristic. *)
let floatish (e : Parsetree.expression) =
  match e.pexp_desc with
  | Parsetree.Pexp_constant (Parsetree.Pconst_float _) -> true
  | Parsetree.Pexp_apply (f, _) -> (
    match ident_name f with
    | Some op -> List.mem op float_arith || List.mem op float_returning
    | None -> false)
  | _ -> false

(* [Hashtbl.fold … |> List.sort …] (or a direct [List.sort … (fold …)])
   pins the order back down, so iteration inside such an expression is
   deterministic as far as the caller can see. *)
let is_sort_context (e : Parsetree.expression) =
  match e.pexp_desc with
  | Parsetree.Pexp_apply (f, args) -> (
    match ident_name f with
    | Some name when List.mem name sorters -> true
    | Some ("|>" | "@@") ->
      List.exists
        (fun (_, (arg : Parsetree.expression)) ->
          match arg.pexp_desc with
          | Parsetree.Pexp_apply (g, _) -> (
            match ident_name g with
            | Some name -> List.mem name sorters
            | None -> false)
          | _ -> false)
        args
    | _ -> false)
  | _ -> false

let rec wildcard_pattern (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Parsetree.Ppat_any -> true
  | Parsetree.Ppat_or (a, b) -> wildcard_pattern a || wildcard_pattern b
  | Parsetree.Ppat_alias (inner, _) -> wildcard_pattern inner
  | _ -> false

(* A handler that ends in [raise]/[failwith]/… is not swallowing: the
   failure still propagates, just renamed. *)
let rec reraises (e : Parsetree.expression) =
  match e.pexp_desc with
  | Parsetree.Pexp_apply (f, _) -> (
    match ident_name f with
    | Some ("raise" | "raise_notrace" | "failwith" | "invalid_arg") -> true
    | _ -> false)
  | Parsetree.Pexp_sequence (_, rest) -> reraises rest
  | Parsetree.Pexp_let (_, _, body) -> reraises body
  | Parsetree.Pexp_open (_, body) -> reraises body
  | _ -> false

(* --- the AST pass ------------------------------------------------------ *)

let lint_ast ~in_lib ~in_par ~in_power ~in_journal ~in_resilience ~file ~emit
    ast =
  let diag code loc message =
    let line, col = line_col loc in
    emit (Diagnostic.v ~code ~severity:Diagnostic.Error ~file ~line ~col message)
  in
  let sorted_depth = ref 0 in
  let check_expr (e : Parsetree.expression) =
    (match ident_name e with
    | Some name when List.mem name clock_idents ->
      diag "L001" e.pexp_loc
        (Printf.sprintf
           "%s reads the ambient clock; go through the Obs.Clock shim so runs \
            stay replayable" name)
    | Some name when List.mem name random_idents ->
      diag "L002" e.pexp_loc
        (Printf.sprintf
           "%s draws from the ambient RNG; use seeded Image.Prng or an \
            explicit Random.State" name)
    | Some name when (not in_par) && List.mem name domain_idents ->
      diag "L009" e.pexp_loc
        (Printf.sprintf
           "%s outside lib/par spawns an unmanaged domain; go through \
            Par.Pool, whose chunking keeps results byte-identical" name)
    | Some name when (not in_power) && List.mem name meter_idents ->
      diag "L010" e.pexp_loc
        (Printf.sprintf
           "%s samples the power meter outside lib/power; energy accounting \
            flows through the instrumented meter sites so Obs.Profile \
            attributes every joule" name)
    | Some name when (not in_journal) && List.mem name journal_idents ->
      diag "L011" e.pexp_loc
        (Printf.sprintf
           "%s emits a decision-journal event outside lib/obs and the \
            sanctioned session/playback/transport/annotator hook sites; the \
            journal's event vocabulary stays auditable only while emission \
            is confined to reviewed hooks" name)
    | Some name when (not in_resilience) && List.mem name resilience_mut_idents
      ->
      diag "L012" e.pexp_loc
        (Printf.sprintf
           "%s mutates breaker/ladder state outside lib/resilience and the \
            sanctioned streaming integration sites; fallback decisions stay \
            replayable only while their state transitions come from reviewed \
            hooks" name)
    | Some name when in_lib && List.mem name print_idents ->
      diag "L005" e.pexp_loc
        (Printf.sprintf
           "%s writes straight to the console from library code; return \
            the value to the caller, or journal the decision (Obs.Journal)" name)
    | _ -> ());
    match e.pexp_desc with
    | Parsetree.Pexp_apply (f, args) -> (
      match ident_name f with
      | Some name when List.mem name hashtbl_iterators && !sorted_depth = 0 ->
        diag "L003" f.pexp_loc
          (Printf.sprintf
             "%s visits bindings in hash order, which is not stable; sort the \
              result before it can reach output" name)
      | Some (("=" | "<>") as op) when List.length args = 2 ->
        if List.exists (fun (_, a) -> floatish a) args then
          diag "L007" e.pexp_loc
            (Printf.sprintf
               "(%s) on a float compares representations exactly; compare \
                against a tolerance or use an ordering" op)
      | _ -> ())
    | Parsetree.Pexp_try (_, cases) ->
      List.iter
        (fun (c : Parsetree.case) ->
          if wildcard_pattern c.pc_lhs && not (reraises c.pc_rhs) then
            diag "L004" c.pc_lhs.ppat_loc
              "wildcard handler swallows every exception, including the ones \
               nobody meant to catch; match the exceptions this code can \
               actually raise")
        cases
    | _ -> ()
  in
  let expr it (e : Parsetree.expression) =
    let sorted_here = is_sort_context e in
    if sorted_here then incr sorted_depth;
    check_expr e;
    Ast_iterator.default_iterator.expr it e;
    if sorted_here then decr sorted_depth
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it ast

(* --- lint control comments --------------------------------------------- *)

type suppression = {
  s_code : string;
  s_first : int;
  s_last : int;
  s_reason : string;
}

let strip_delims text =
  let text =
    if String.length text >= 2 && String.sub text 0 2 = "(*" then
      String.sub text 2 (String.length text - 2)
    else text
  in
  let text =
    if String.length text >= 2
       && String.sub text (String.length text - 2) 2 = "*)"
    then String.sub text 0 (String.length text - 2)
    else text
  in
  String.trim text

(* The concurrency pass (Check_lint.Concurrency) owns C-rule semantics,
   but the suppression grammar is parsed here, so the code registry
   must know both families. *)
let concurrency_codes =
  [ "C001"; "C002"; "C003"; "C004"; "C005"; "C006" ]

let known_code code =
  List.exists (fun r -> r.code = code) rules
  || List.mem code concurrency_codes

let split_words s =
  String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) s)
  |> List.filter (fun w -> w <> "")

(* Parses one comment; returns a suppression, an L008 diagnostic, or
   nothing when the comment is not lint-directed at all. *)
let classify_comment ~file (text, (loc : Location.t)) =
  let body = strip_delims text in
  if not (String.starts_with ~prefix:"lint:" body) then None
  else
    let first, _ = line_col loc in
    let last = loc.Location.loc_end.Lexing.pos_lnum in
    let l008 message =
      Some
        (Either.Right
           (Diagnostic.v ~code:"L008" ~severity:Diagnostic.Error ~file
              ~line:first message))
    in
    let rest = String.trim (String.sub body 5 (String.length body - 5)) in
    match split_words rest with
    | "allow" :: code :: (_ :: _ as reason_words)
      when known_code code && String.concat "" reason_words <> "" ->
      Some
        (Either.Left
           {
             s_code = code;
             s_first = first;
             s_last = last;
             s_reason = String.concat " " reason_words;
           })
    | "allow" :: code :: [] when known_code code ->
      l008
        (Printf.sprintf
           "suppressing %s needs a reason: (* lint: allow %s <why> *)" code code)
    | "allow" :: code :: _ ->
      l008 (Printf.sprintf "unknown rule code %S in lint comment" code)
    | _ ->
      l008 "malformed lint comment; expected (* lint: allow L00n <reason> *)"

(* A suppression covers the comment's own lines and the line right
   after it, so it works both trailing the finding and on the line
   above. L008 itself cannot be allowed away. *)
let suppressed suppressions (d : Diagnostic.t) =
  d.Diagnostic.code <> "L008"
  && List.exists
       (fun s ->
         s.s_code = d.Diagnostic.code
         && d.Diagnostic.line >= s.s_first
         && d.Diagnostic.line <= s.s_last + 1)
       suppressions

(* --- parsing ----------------------------------------------------------- *)

let parse_structure ~path text =
  let lexbuf = Lexing.from_string text in
  Location.init lexbuf path;
  Parse.implementation lexbuf

let scan_comments ~path text =
  let lexbuf = Lexing.from_string text in
  Location.init lexbuf path;
  Lexer.init ();
  let rec drain () =
    match Lexer.token lexbuf with Parser.EOF -> () | _ -> drain ()
  in
  drain ();
  Lexer.comments ()

let parse_failure ~file message loc =
  let line, col = match loc with Some l -> line_col l | None -> (1, 0) in
  [
    Diagnostic.v ~code:"L000" ~severity:Diagnostic.Error ~file ~line ~col
      message;
  ]

(* --- sources: parse once, lint many ------------------------------------ *)

type source = {
  src_path : string;
  src_in_lib : bool;
  src_in_par : bool;
  src_in_power : bool;
  src_in_journal : bool;
  src_in_resilience : bool;
  src_has_mli : bool;
  src_ast : Parsetree.structure option;
  src_comments : (string * Location.t) list;
  src_suppressions : suppression list;
  src_comment_diags : Diagnostic.t list;
  src_parse_diags : Diagnostic.t list;
}

let of_string ?in_lib ?in_par ?in_power ?in_journal ?in_resilience
    ?(has_mli = true) ~path contents =
  let segments =
    let p = String.map (fun c -> if c = '\\' then '/' else c) path in
    String.split_on_char '/' p
  in
  let in_lib =
    match in_lib with
    | Some b -> b
    | None ->
      let rec has_lib_seg = function
        | [] -> false
        | "lib" :: _ :: _ -> true
        | _ :: rest -> has_lib_seg rest
      in
      has_lib_seg segments
  in
  let in_par =
    match in_par with
    | Some b -> b
    | None ->
      let rec has_par_seg = function
        | [] -> false
        | "lib" :: "par" :: _ -> true
        | _ :: rest -> has_par_seg rest
      in
      has_par_seg segments
  in
  let in_power =
    match in_power with
    | Some b -> b
    | None ->
      (* lib/obs is exempt alongside lib/power: the profiler and its
         tests are part of the accounting machinery itself. *)
      let rec has_power_seg = function
        | [] -> false
        | "lib" :: ("power" | "obs") :: _ -> true
        | _ :: rest -> has_power_seg rest
      in
      has_power_seg segments
  in
  let in_journal =
    match in_journal with
    | Some b -> b
    | None ->
      let rec has_obs_seg = function
        | [] -> false
        | "lib" :: "obs" :: _ -> true
        | _ :: rest -> has_obs_seg rest
      in
      let normalized = String.concat "/" segments in
      has_obs_seg segments
      || List.exists
           (fun hook -> String.ends_with ~suffix:hook normalized)
           journal_hook_files
  in
  let in_resilience =
    match in_resilience with
    | Some b -> b
    | None ->
      let rec has_res_seg = function
        | [] -> false
        | "lib" :: "resilience" :: _ -> true
        | _ :: rest -> has_res_seg rest
      in
      let normalized = String.concat "/" segments in
      has_res_seg segments
      || List.exists
           (fun hook -> String.ends_with ~suffix:hook normalized)
           resilience_hook_files
  in
  let base =
    {
      src_path = path;
      src_in_lib = in_lib;
      src_in_par = in_par;
      src_in_power = in_power;
      src_in_journal = in_journal;
      src_in_resilience = in_resilience;
      src_has_mli = has_mli;
      src_ast = None;
      src_comments = [];
      src_suppressions = [];
      src_comment_diags = [];
      src_parse_diags = [];
    }
  in
  match parse_structure ~path contents with
  | exception Syntaxerr.Error err ->
    {
      base with
      src_parse_diags =
        parse_failure ~file:path "syntax error"
          (Some (Syntaxerr.location_of_error err));
    }
  | exception Lexer.Error (_, loc) ->
    { base with src_parse_diags = parse_failure ~file:path "lexical error" (Some loc) }
  | ast ->
    let comments = scan_comments ~path contents in
    let suppressions, comment_diags =
      List.fold_left
        (fun (sups, diags) comment ->
          match classify_comment ~file:path comment with
          | None -> (sups, diags)
          | Some (Either.Left s) -> (s :: sups, diags)
          | Some (Either.Right d) -> (sups, d :: diags))
        ([], []) comments
    in
    {
      base with
      src_ast = Some ast;
      src_comments = comments;
      src_suppressions = suppressions;
      src_comment_diags = comment_diags;
    }

let load_file ?in_lib path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg ->
    let src = of_string ?in_lib ~path "" in
    { src with src_ast = None; src_parse_diags = parse_failure ~file:path msg None }
  | contents ->
    let has_mli =
      Filename.check_suffix path ".ml"
      && Sys.file_exists (Filename.chop_suffix path ".ml" ^ ".mli")
    in
    of_string ?in_lib ~has_mli ~path contents

let is_allowed src ~code ~line =
  code <> "L008"
  && List.exists
       (fun s -> s.s_code = code && line >= s.s_first && line <= s.s_last + 1)
       src.src_suppressions

type allow = {
  a_code : string;
  a_file : string;
  a_line : int;
  a_reason : string;
}

let allows src =
  List.map
    (fun s ->
      {
        a_code = s.s_code;
        a_file = src.src_path;
        a_line = s.s_first;
        a_reason = s.s_reason;
      })
    src.src_suppressions
  |> List.sort compare

let filter_suppressed src diags =
  List.filter (fun d -> not (suppressed src.src_suppressions d)) diags
  |> List.sort Diagnostic.compare

let lint_parsed src =
  match src.src_ast with
  | None -> src.src_parse_diags
  | Some ast ->
    let found = ref src.src_comment_diags in
    let emit d = found := d :: !found in
    lint_ast ~in_lib:src.src_in_lib ~in_par:src.src_in_par
      ~in_power:src.src_in_power ~in_journal:src.src_in_journal
      ~in_resilience:src.src_in_resilience ~file:src.src_path ~emit ast;
    if src.src_in_lib && not src.src_has_mli then
      emit
        (Diagnostic.v ~code:"L006" ~severity:Diagnostic.Error
           ~file:src.src_path ~line:1
           "library module has no .mli; every lib/ module states its contract");
    filter_suppressed src !found

let lint_source ?in_lib ?in_par ?in_power ?in_journal ?in_resilience ?has_mli
    ~path contents =
  lint_parsed
    (of_string ?in_lib ?in_par ?in_power ?in_journal ?in_resilience ?has_mli
       ~path contents)

let rec ml_files_under path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry ->
           if entry = "_build" || String.starts_with ~prefix:"." entry then []
           else ml_files_under (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

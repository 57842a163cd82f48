(* The static gatekeepers. [sources] runs every source pass — the
   per-file determinism rules, the cross-module transitive effect
   closure, and the concurrency-safety analyzer — over one shared
   parse of the tree; [concurrency] runs just the call-graph passes;
   [verify] audits annotation blobs, SLO files and fault profiles at
   rest. All speak Check.Diagnostic and exit 1 when any
   error-severity finding survives. *)

open Cmdliner
module Lint = Check_lint.Lint
module Callgraph = Check_lint.Callgraph
module Concurrency = Check_lint.Concurrency

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit machine-readable JSON instead of the human one-per-line \
           form. $(b,sources) emits $(b,{diagnostics, passes, summary}) \
           with per-pass wall time; $(b,verify) emits the array of \
           findings.")

(* Shared human-readable reporting tail. *)
let report_human ~what ~files diags =
  List.iter (Format.printf "%a@." Check.Diagnostic.pp) diags;
  let errors = Check.Diagnostic.errors diags in
  let warnings = Check.Diagnostic.warnings diags in
  Format.printf "%s: %d file(s), %d error(s), %d warning(s)@." what files
    errors warnings

let exit_code diags = if Check.Diagnostic.errors diags > 0 then 1 else 0

let expand_paths paths =
  List.concat_map
    (fun path ->
      if Sys.is_directory path then Lint.ml_files_under path else [ path ])
    paths

(* Host time per pass, for the linter's own telemetry: the timings
   feed EXPERIMENTS, never an annotation stream. *)
let timed passes name f =
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  let ms = Obs.Clock.ns_to_s (Obs.Clock.elapsed_ns ~since:t0) *. 1000. in
  passes := (name, ms) :: !passes;
  r

type run = {
  r_files : int;
  r_diags : Check.Diagnostic.t list;
  r_allows : Lint.allow list;
  r_passes : (string * float) list;  (** (pass, ms) in run order *)
}

(* Parse once, fan out to the requested passes. *)
let run_passes ~per_file ~graph_passes paths =
  let passes = ref [] in
  let files = expand_paths paths in
  let sources = timed passes "parse" (fun () -> List.map Lint.load_file files) in
  let file_diags =
    if per_file then
      timed passes "rules" (fun () -> List.concat_map Lint.lint_parsed sources)
    else
      (* Parse failures still surface: the graph passes are blind to a
         file they could not read. *)
      List.concat_map
        (fun (s : Lint.source) ->
          Lint.filter_suppressed s s.Lint.src_parse_diags)
        sources
  in
  let graph_diags =
    if not graph_passes then []
    else begin
      let graph = timed passes "callgraph" (fun () -> Callgraph.build sources) in
      let effects =
        timed passes "effects" (fun () -> Callgraph.transitive_effects graph)
      in
      let conc =
        timed passes "concurrency" (fun () -> Concurrency.check graph sources)
      in
      effects @ conc
    end
  in
  {
    r_files = List.length files;
    r_diags = List.sort Check.Diagnostic.compare (file_diags @ graph_diags);
    r_allows = List.concat_map Lint.allows sources;
    r_passes = List.rev !passes;
  }

let run_json ~what run =
  let summary =
    Obs.Json.Obj
      [
        ("files", Obs.Json.Int run.r_files);
        ("errors", Obs.Json.Int (Check.Diagnostic.errors run.r_diags));
        ("warnings", Obs.Json.Int (Check.Diagnostic.warnings run.r_diags));
        ("allows", Obs.Json.Int (List.length run.r_allows));
      ]
  in
  Obs.Json.Obj
    [
      ("tool", Obs.Json.String what);
      ( "diagnostics",
        Obs.Json.List (List.map Check.Diagnostic.to_json run.r_diags) );
      ( "passes",
        Obs.Json.List
          (List.map
             (fun (name, ms) ->
               Obs.Json.Obj
                 [ ("pass", Obs.Json.String name); ("ms", Obs.Json.Float ms) ])
             run.r_passes) );
      ("summary", summary);
    ]

let print_allows allows =
  List.iter
    (fun (a : Lint.allow) ->
      Format.printf "%s:%d: allow %s  %s@." a.Lint.a_file a.Lint.a_line
        a.Lint.a_code a.Lint.a_reason)
    allows;
  Format.printf "%d reasoned allow(s)@." (List.length allows)

let paths_arg =
  Arg.(
    value
    & pos_all string [ "lib"; "bin" ]
    & info [] ~docv:"PATH"
        ~doc:
          "Files or directories to lint; directories are walked recursively \
           for .ml files. Defaults to $(b,lib bin).")

let sources_cmd =
  let list_allows_arg =
    Arg.(
      value & flag
      & info [ "list-allows" ]
        ~doc:
          "Instead of findings, enumerate every reasoned $(b,lint: allow) \
           in the tree with its rule, location and reason — the audit feed \
           for stale suppressions. Exits 0.")
  in
  let run json list_allows paths =
    match run_passes ~per_file:true ~graph_passes:true paths with
    | exception Sys_error msg ->
      prerr_endline ("error: " ^ msg);
      2
    | run ->
      if list_allows then begin
        if json then
          print_endline
            (Obs.Json.to_string
               (Obs.Json.List
                  (List.map
                     (fun (a : Lint.allow) ->
                       Obs.Json.Obj
                         [
                           ("file", Obs.Json.String a.Lint.a_file);
                           ("line", Obs.Json.Int a.Lint.a_line);
                           ("code", Obs.Json.String a.Lint.a_code);
                           ("reason", Obs.Json.String a.Lint.a_reason);
                         ])
                     run.r_allows)))
        else print_allows run.r_allows;
        0
      end
      else begin
        if json then print_endline (Obs.Json.to_string (run_json ~what:"lint" run))
        else report_human ~what:"lint" ~files:run.r_files run.r_diags;
        exit_code run.r_diags
      end
  in
  let doc = "lint the OCaml sources for nondeterminism, hygiene and concurrency" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses each source once with the compiler front end and applies \
         every pass over the shared AST: the per-file rule registry \
         (ambient clocks L001, ambient randomness L002, hash-order \
         iteration feeding output L003, wildcard exception swallowing \
         L004, console output from the library L005, missing .mli L006, \
         float (in)equality L007, malformed suppressions L008, ad-hoc \
         domain spawns outside lib/par L009, direct power-meter sampling \
         outside lib/power and lib/obs L010, journal emission outside the \
         sanctioned hooks L011, breaker/ladder mutation outside the \
         sanctioned sites L012); the cross-module call graph's transitive \
         closure of L001/L002 (a function that reaches an ambient clock \
         or RNG through any call chain is flagged at its own definition \
         with the witness chain); and the concurrency-safety analyzer \
         (C001–C006, see $(b,lint concurrency)). Suppress a finding with \
         an inline comment $(b,(* lint: allow CODE reason *)) — the \
         reason is mandatory.";
    ]
  in
  Cmd.v
    (Cmd.info "sources" ~doc ~man)
    Term.(const run $ json_arg $ list_allows_arg $ paths_arg)

let concurrency_cmd =
  let run json paths =
    match run_passes ~per_file:false ~graph_passes:true paths with
    | exception Sys_error msg ->
      prerr_endline ("error: " ^ msg);
      2
    | run ->
      if json then
        print_endline (Obs.Json.to_string (run_json ~what:"concurrency" run))
      else report_human ~what:"concurrency" ~files:run.r_files run.r_diags;
      exit_code run.r_diags
  in
  let doc = "run only the call-graph passes: concurrency safety and effects" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Builds the cross-module call graph and runs the concurrency \
         analyzer plus the transitive effect closure, without the \
         per-file rules: unguarded module-level mutable state in \
         par-linked libraries (C001), guarded_by fields accessed without \
         their mutex (C002), locks not released on every path (C003), \
         blocking operations — including transitive ones through the \
         call graph — while holding a lock (C004), lock-order cycles \
         (C005), and raw concurrency primitives outside the sanctioned \
         modules (C006). Annotate shared state with \
         $(b,(* guarded_by: mutex *)) or $(b,(* owned_by: reason *)); \
         suppress a deliberate finding with \
         $(b,(* lint: allow C00n reason *)).";
    ]
  in
  Cmd.v
    (Cmd.info "concurrency" ~doc ~man)
    Term.(const run $ json_arg $ paths_arg)

let verify_cmd =
  let files_arg =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:
            "Artifacts to audit: $(b,.slo) rule files, $(b,.fault) profiles, \
             $(b,.resilience) profiles, $(b,.journal) decision journals; \
             anything else is checked as an encoded annotation stream.")
  in
  let run json files =
    let diags =
      List.sort Check.Diagnostic.compare
        (List.concat_map Check.Artifact.check_file files)
    in
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.List (List.map Check.Diagnostic.to_json diags)))
    else report_human ~what:"verify" ~files:(List.length files) diags;
    exit_code diags
  in
  let doc = "statically audit annotation artifacts at rest" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Validates artifacts without running a session: annotation streams \
         (framing, header and record CRCs, varint bounds, scene-index \
         monotonicity and coverage, backlight range for the named panel — \
         V1xx), SLO rule files (syntax, metric catalog, contradictions — \
         V2xx), fault profiles (V3xx), decision journals written by the \
         tools' $(b,--journal) flag (framing, header and frame CRCs, \
         per-phase timestamp monotonicity, event schema — V4xx) and \
         resilience profiles (syntax, positive budgets, ladder rung order, \
         breaker thresholds in [0,1] — V5xx). Exit status 1 if any \
         error-level finding, 0 otherwise.";
    ]
  in
  Cmd.v (Cmd.info "verify" ~doc ~man) Term.(const run $ json_arg $ files_arg)

let () =
  let doc = "static verification: source linter and artifact auditor" in
  let info = Cmd.info "lint" ~version:"1.0" ~doc in
  exit (Cmd.eval' (Cmd.group info [ sources_cmd; concurrency_cmd; verify_cmd ]))

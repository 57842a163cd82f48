(** Determinism linter over the repository's own OCaml sources.

    DESIGN.md §8 argues that every run must be a pure function of its
    inputs — that is what lets a client trust an annotation stream it
    did not compute. This linter turns that argument from convention
    into tooling: it parses each source file with the compiler's own
    front end (no type-checking, so it runs on a lone file in
    microseconds) and walks the AST for constructs that smuggle
    nondeterminism, swallow failures, or bypass the observability
    layer.

    Rules (stable codes, see the README "Static checks" table):

    - [L001] ambient clock read ([Unix.gettimeofday], [Unix.time],
      [Sys.time], [Monotonic_clock.now]) — all host-clock access goes
      through the [Obs.Clock] shim so simulations stay replayable.
    - [L002] ambient randomness ([Random.self_init] or the global
      [Random.int]/[float]/[bool]/[bits]) — seeded [Image.Prng] or an
      explicit [Random.State] only.
    - [L003] [Hashtbl.fold]/[Hashtbl.iter] whose result is not
      locally sorted — hash order is seed-dependent and must never
      reach output. Folds piped into [List.sort]-family calls within
      the same expression are exempt.
    - [L004] exception swallowing: a [try … with] case whose pattern
      is [_] and whose handler does not re-raise.
    - [L005] direct console output in [lib/] ([Printf.printf],
      [print_endline], [prerr_*], [Format.printf], …) — library code
      returns the value to its caller or journals the decision
      ([Obs.Journal]), never writes to a hard-wired channel.
    - [L006] a [lib/] module without an [.mli] — every library module
      states its contract.
    - [L007] [=] or [<>] on operands that are syntactically
      floating-point (float literal, float arithmetic, a known
      float-returning function) — exact float equality is
      representation-dependent.
    - [L008] a [(* lint: … *)] control comment that is malformed or
      suppresses without a reason.
    - [L009] [Domain.spawn] anywhere but [lib/par] — ad-hoc domains
      bypass the pool's deterministic chunking; all parallelism goes
      through [Par.Pool].
    - [L010] [Power.Meter.create]/[measure]/[measure_trace] anywhere
      but [lib/power] or [lib/obs] — energy accounting flows through
      the instrumented meter sites so [Obs.Profile] attributes every
      joule; ad-hoc meters produce readings the profiler never sees.
    - [L011] [Obs.Journal.record]/[record_in] anywhere but [lib/obs],
      the sanctioned hook sites ([lib/streaming/session.ml],
      [playback.ml], [transport.ml], [fault.ml],
      [lib/annot/annotator.ml]) and the resilience decision modules
      ([lib/resilience/breaker.ml], [degrade.ml], [bulkhead.ml]) — the
      decision journal is a closed event vocabulary emitted from
      reviewed hooks; ad-hoc emission would degrade it into an
      unauditable printf log.
    - [L012] [Resilience.Breaker.allow]/[record] or
      [Resilience.Degrade.note] anywhere but [lib/resilience] and the
      sanctioned streaming integration sites
      ([lib/streaming/session.ml], [transport.ml], [server.ml]) —
      breaker trips and ladder descents are journaled
      control-plane decisions; mutating their state from arbitrary
      code would bend a breaker open (or fake a rung) without an
      auditable trace.

    Suppression: [(* lint: allow L00n <reason> *)] on the same line as
    the finding, or on the line above it, silences that code there.
    The reason is mandatory — a bare allow is itself an [L008]. [L008]
    cannot be suppressed. *)

type rule = {
  code : string;
  title : string;  (** short name for the README table *)
  lib_only : bool;  (** enforced only under [lib/] *)
}

val rules : rule list
(** Every rule the linter knows, in code order. *)

val concurrency_codes : string list
(** The C-rule codes owned by {!Concurrency}. Listed here because the
    [lint: allow] grammar is parsed by this module and must accept
    both families. *)

val clock_idents : string list
(** The ambient-clock entry points L001 flags; {!Callgraph} reuses the
    list for the transitive closure. *)

val random_idents : string list
(** The ambient-RNG entry points L002 flags; {!Callgraph} reuses the
    list for the transitive closure. *)

(** {1 Parsed sources}

    Every lint pass (per-file rules, call graph, concurrency) shares
    one parse per file: [load_file]/[of_string] builds a {!source}
    carrying the AST, the comments, and the parsed suppression
    comments; the passes consume it without re-lexing. *)

type suppression = {
  s_code : string;  (** rule being allowed *)
  s_first : int;  (** first line the suppression covers *)
  s_last : int;  (** last comment line; coverage extends one further *)
  s_reason : string;  (** mandatory justification text *)
}

type source = {
  src_path : string;
  src_in_lib : bool;
  src_in_par : bool;
  src_in_power : bool;
  src_in_journal : bool;
  src_in_resilience : bool;
  src_has_mli : bool;
  src_ast : Parsetree.structure option;
      (** [None] when the file failed to parse *)
  src_comments : (string * Location.t) list;
  src_suppressions : suppression list;
  src_comment_diags : Check.Diagnostic.t list;  (** L008 findings *)
  src_parse_diags : Check.Diagnostic.t list;  (** L000 findings *)
}

val of_string : ?in_lib:bool -> ?in_par:bool -> ?in_power:bool ->
  ?in_journal:bool -> ?in_resilience:bool -> ?has_mli:bool -> path:string ->
  string -> source
(** Parse a source text into a {!source} without touching the
    filesystem. The optional flags default from [path] exactly as in
    {!lint_source}. *)

val load_file : ?in_lib:bool -> string -> source
(** Read and parse [path]; [has_mli] is taken from the filesystem. An
    unreadable file yields a source whose [src_parse_diags] carry a
    single [L000]. *)

val lint_parsed : source -> Check.Diagnostic.t list
(** Run the per-file rules (the L-family) over an already-parsed
    source: AST pass, L006, comment diagnostics, suppression
    filtering, sorted output. *)

val is_allowed : source -> code:string -> line:int -> bool
(** Whether a reasoned [lint: allow code] suppression covers [line].
    [L008] is never allowed. Cross-pass rules (transitive effects,
    C-rules) use this to honor the same grammar. *)

type allow = {
  a_code : string;
  a_file : string;
  a_line : int;
  a_reason : string;
}

val allows : source -> allow list
(** Every reasoned suppression in the file, sorted — the audit feed
    behind [lint sources --list-allows]. *)

val filter_suppressed : source -> Check.Diagnostic.t list ->
  Check.Diagnostic.t list
(** Drop diagnostics covered by the file's suppressions and sort the
    remainder with {!Check.Diagnostic.compare}. *)

val lint_source : ?in_lib:bool -> ?in_par:bool -> ?in_power:bool ->
  ?in_journal:bool -> ?in_resilience:bool -> ?has_mli:bool -> path:string ->
  string -> Check.Diagnostic.t list
(** [lint_source ~path contents] lints a source text without touching
    the filesystem. [in_lib] (default: [path] is under a [lib/]
    directory) gates the lib-only rules; [in_par] (default: [path] is
    under [lib/par]) exempts the pool itself from L009; [in_power]
    (default: [path] is under [lib/power] or [lib/obs]) exempts the
    meter and the profiler themselves from L010; [in_journal]
    (default: [path] is under [lib/obs] or ends with one of the
    sanctioned hook files) exempts the journal and its reviewed hook
    sites from L011; [in_resilience] (default: [path] is under
    [lib/resilience] or ends with one of the sanctioned streaming
    integration files) exempts the control plane and its reviewed
    integration sites from L012; [has_mli] (default [true], so L006
    stays quiet) tells the linter whether a sibling interface exists.
    An unparsable file yields a single [L000] error. Results are
    sorted with {!Check.Diagnostic.compare}. *)

val ml_files_under : string -> string list
(** [ml_files_under path] is [path] itself for a regular [.ml] file,
    or every [.ml] file below a directory, sorted, skipping [_build]
    and dot-directories — the file set [lint sources] runs on. *)

(** Offline verifier for the artifacts a client is asked to trust.

    The paper's premise is that analysis happens on the server,
    offline; the client applies annotations it never re-derives. That
    only works if an artifact can be audited {e at rest} — before a
    session, without a clip, without running anything. This module
    does exactly that for the artifact kinds the pipeline ships:

    - encoded annotation tracks ({!Annotation.Encoding} wire format,
      any other version is [V102]) — framing, header and record CRCs,
      varint and header-field bounds, scene-index order, spans and
      coverage, backlight register against the target panel's range,
      canonical quality grid;
    - [.slo] rule files — syntax, selectors against the known metric
      catalog, contradictory or duplicate rules;
    - [.fault] profiles — syntax, probability ranges, Gilbert-channel
      feasibility;
    - [.journal] decision journals ({!Obs.Journal}) — header and
      per-frame CRCs, framing bounds, payload schema, per-phase
      timestamp monotonicity;
    - [.resilience] profiles ({!Resilience.Profile}) — syntax,
      positive budgets, ladder rung order, breaker thresholds.

    The two binary formats are judged by their own modules
    ({!Annotation.Encoding.judge}; {!Obs.Journal.walk} and
    {!Obs.Journal.tick}): the verifier does not re-parse the bytes or
    re-state a rule, it reports every problem they name, each with its
    offset, under a stable code. It accepts exactly what the strict
    decoders accept, bar the two annotation checks that need the
    world outside the stream: the paper's quality grid and the target
    panel's backlight range.

    Codes (stable, see README "Static checks"): [V001] dispatch,
    [V1xx] annotation streams, [V2xx] SLO files, [V3xx] fault
    profiles, [V4xx] decision journals, [V5xx] resilience profiles.
    Every check emits {!Diagnostic.t}; none of them raises or runs a
    session. *)

type known_metrics = {
  histograms : string list;
      (** registry histogram families — what [_pNN] selectors read *)
  names : string list;
      (** every declared monitor series — what the other selectors
          read; a registry counter or gauge is not one *)
}

val known_metrics : unit -> known_metrics
(** Snapshot of the live process: registry histogram families plus
    {!Obs.Monitor.declared_series}. Complete only in an executable
    linked with [-linkall] (as [bin/lint] is), since declarations run
    at module initialisation. *)

val check_annotation :
  ?find_device:(string -> Display.Device.t option) ->
  file:string -> string -> Diagnostic.t list
(** [check_annotation ~file bytes] statically audits an encoded
    annotation stream: each {!Annotation.Encoding.judge} problem is an
    error under its code ([V101]–[V105], [V107]–[V111], [V114]), so
    there is none exactly when {!Annotation.Encoding.decode} is [Ok].
    On a usable header it adds a quality off the paper's grid
    ([V106], warning) and intact records whose register is outside the
    panel's range ([V112]); [find_device] (default
    {!Display.Device.find}) resolves the header's device name for that
    check, and an unknown device skips it silently. [file] labels the
    diagnostics. A pristine {!Annotation.Encoding.encode} output yields
    []. *)

val check_slo :
  ?known:known_metrics -> file:string -> string -> Diagnostic.t list
(** [check_slo ~file text] validates an SLO rule file without a
    monitor: parse errors ([V201]), selectors naming no known metric
    ([V202], skipped when [known] — default {!known_metrics} — is
    empty), pairs of rules on the same selector that no value can
    satisfy simultaneously ([V203]), exact duplicates ([V204],
    warning), and an empty rule set ([V205], warning). *)

val check_fault : file:string -> string -> Diagnostic.t list
(** [check_fault ~file text] validates a fault profile: anything
    {!Streaming.Fault.parse} rejects becomes a [V301] error, a
    profile that injects no fault at all is a [V302] warning. *)

val check_resilience : file:string -> string -> Diagnostic.t list
(** [check_resilience ~file text] validates a resilience profile:
    anything {!Resilience.Profile.parse} rejects — unknown keys, bad
    numbers, unknown ladder rungs — becomes a [V501] error;
    non-positive budgets, round counts, windows, quotas or deadlines
    (which the runtime would clamp) are [V502] errors; ladder rungs
    written out of shallowest-first order (or duplicated) are [V503]
    errors; a breaker threshold outside [0, 1] is a [V504] error; a
    profile that configures nothing at all is a [V505] warning. *)

val check_journal : file:string -> string -> Diagnostic.t list
(** [check_journal ~file bytes] statically audits a decision journal
    ({!Obs.Journal} wire format): bad magic ([V401]), unknown version
    ([V402]), truncation mid-header or mid-frame ([V403]), header CRC
    mismatch ([V404]), per-frame CRC mismatch ([V405], walk
    continues), timestamps running backwards within a contiguous run
    of same-phase events ([V406], {!Obs.Journal.tick}, the rule
    {!Obs.Journal.decode} also applies), payload schema violations
    — unknown kind tags, malformed fields, trailing bytes ([V407]) —
    and implausible framing lengths ([V408], walk stops). A pristine
    {!Obs.Journal.write} output yields []. *)

val check_file : string -> Diagnostic.t list
(** [check_file path] reads [path] and dispatches on its extension:
    [.slo] → {!check_slo}, [.fault] → {!check_fault}, [.resilience] →
    {!check_resilience}, [.journal] → {!check_journal}, anything else
    → {!check_annotation}. An unreadable file is a single [V001]
    error. *)

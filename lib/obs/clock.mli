(** Monotonic host clock for span timing.

    Readings come from the operating system's CLOCK_MONOTONIC, which
    never steps backwards (NTP slews it but cannot reverse it), so
    span durations and nesting invariants (child intervals inside the
    parent interval) always hold, within one domain and across
    domains.

    The origin is arbitrary (on Linux, roughly the boot time), not the
    Unix epoch: a reading means nothing on its own, only the difference
    of two readings does. The log's [ts_ns] and the Chrome trace's [ts]
    count from that origin. *)

val now_ns : unit -> int64
(** Current time in nanoseconds since an arbitrary fixed origin,
    non-decreasing. *)

val elapsed_ns : since:int64 -> int64
(** [elapsed_ns ~since] is [now_ns () - since], never negative. *)

val ns_to_s : int64 -> float

val ns_to_us : int64 -> float

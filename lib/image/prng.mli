(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the simulator (synthetic content,
    sensor noise, network jitter) draws from an explicit [Prng.t] so
    that clips, snapshots and experiments are bit-reproducible across
    runs — a requirement for the regression benches. *)

type t

val create : seed:int -> t
(** [create ~seed] is a fresh generator; equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t]'s stream,
    advancing [t]. Useful to give each frame or each scene its own
    stream so that content is stable under reordering. *)

val bits64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound); [bound] must be
    positive. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** [gaussian t ~mu ~sigma] draws from a normal distribution
    (Box–Muller). *)

val gaussian_int : t -> mu:float -> sigma:float -> int
(** [gaussian_int t ~mu ~sigma] is [int_of_float (gaussian t ~mu ~sigma)]:
    the same draws and the same double, truncated without boxing it,
    so a per-pixel noise loop allocates nothing. *)

val bool : t -> bool

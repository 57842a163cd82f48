(** Deterministic fault injection for the streaming substrate: the one
    channel model of the wireless hop of Fig 1.

    Real 802.11 links drop packets (i.i.d. or in bursts, from
    interference and fading), flip delivered bytes, deliver out of
    order or late, and collapse in throughput mid-stream when the user
    walks away from the access point. This module bundles those failure
    modes into one composable, seeded description; {!none} is the
    lossless channel.

    Everything is driven by {!Image.Prng}: the same fault description
    and seed always produce the same packet fates, so chaos experiments
    are bit-reproducible and failures found by the sweep can be
    replayed. *)

type loss_model =
  | No_loss
  | Bernoulli of float  (** i.i.d. loss probability *)
  | Gilbert of {
      p_enter_bad : float;  (** good→bad transition probability *)
      p_exit_bad : float;  (** bad→good transition probability *)
      loss_good : float;  (** loss probability in the good state *)
      loss_bad : float;  (** loss probability in the bad state *)
    }
      (** Two-state Gilbert–Elliott burst-loss channel. The chain
          starts in its stationary distribution so short packet trains
          still see the configured mean loss. *)

type collapse = {
  at_fraction : float;  (** stream progress in [0, 1] where it happens *)
  factor : float;  (** remaining bandwidth fraction, in (0, 1] *)
}
(** Mid-stream bandwidth collapse: from [at_fraction] of the stream
    onward, transfers take [1 / factor] times as long. *)

type t = {
  loss : loss_model;
  corrupt_rate : float;  (** per-byte flip probability on delivered packets *)
  reorder_rate : float;
      (** probability a delivered packet is displaced past its decode
          deadline — indistinguishable from loss to the receiver, but
          repairable by retransmission *)
  jitter_s : float;  (** max uniform extra delay per delivery, seconds *)
  collapse : collapse option;
}

val none : t
(** No faults at all: every packet delivered intact and on time. *)

val bernoulli : rate:float -> t
(** i.i.d. loss with probability [rate]. Raises [Invalid_argument]
    when [rate] is outside [\[0, 1\]]. *)

val gilbert :
  ?loss_good:float -> ?loss_bad:float -> mean_loss:float ->
  burst_length:float -> unit -> t
(** [gilbert ~mean_loss ~burst_length ()] builds a Gilbert–Elliott
    channel from the two numbers papers quote: the long-run loss
    fraction and the mean number of consecutive bad-state packets.
    With the defaults ([loss_good = 0], [loss_bad = 1]):
    [p_exit_bad = 1 / burst_length] and
    [p_enter_bad = p_exit_bad * pi / (1 - pi)] where [pi = mean_loss].
    Raises [Invalid_argument] when [mean_loss] is not strictly between
    [loss_good] and [loss_bad], or [burst_length < 1]. *)

val loss_mask : t -> seed:int -> n:int -> bool array
(** [loss_mask t ~seed ~n] marks which of [n] deliveries are lost
    under [t.loss] alone (no corruption or reorder) — the video
    frame loss mask. *)

val apply : ?t_s:float -> t -> seed:int -> string array -> string option array
(** [apply t ~seed packets] pushes a packet train through the channel:
    lost and deadline-displaced packets come back [None]; delivered
    packets may have bytes flipped ([corrupt_rate]). Delivered content
    is shared with the input when untouched. [t_s] (default 0) stamps
    the {!Obs.Journal.Channel} event this pass records when a journal
    is installed — it does not affect the channel itself. *)

val delay_s : t -> seed:int -> index:int -> float
(** Deterministic jitter for delivery [index], uniform in
    [\[0, jitter_s)]. Random-access: independent of other indices. *)

val bandwidth_factor : t -> progress:float -> float
(** Remaining bandwidth fraction at [progress] ∈ [0, 1] of the stream:
    [1] before the collapse point (or when no collapse is configured),
    [collapse.factor] after. Divide nominal throughput by the result
    to get effective transfer times. *)

val parse : string -> (t, string) result
(** Parse the text fault-profile format ([key = value] lines, [#]
    comments):

    {v
    model          = none | bernoulli | gilbert
    rate           = FLOAT   # bernoulli loss probability
    mean_loss      = FLOAT   # gilbert long-run loss fraction
    burst_length   = FLOAT   # gilbert mean burst length (packets)
    loss_good      = FLOAT   # gilbert per-state loss, optional
    loss_bad       = FLOAT
    corrupt        = FLOAT   # per-byte corruption probability
    reorder        = FLOAT   # deadline-displacement probability
    jitter_ms      = FLOAT   # max per-delivery jitter
    collapse_at    = FLOAT   # stream fraction where bandwidth drops
    collapse_factor = FLOAT  # remaining bandwidth fraction
    v} *)

val load : path:string -> (t, string) result
(** [parse] on a file's contents; I/O errors become [Error]. *)

val pp : Format.formatter -> t -> unit
(** One-line human description, e.g.
    [gilbert(mean 10.0%, burst 4.0) corrupt 1e-3 jitter 5ms]. *)

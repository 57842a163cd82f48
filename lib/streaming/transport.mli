(** Frame-aligned transport with loss and concealment.

    The wireless link of Fig 1 drops packets. The transport ships each
    coded frame as its own packet train; when a frame is lost the
    client conceals it by repeating the previous picture, and later
    P-frames predict from the *concealed* picture — drifting until the
    next I-frame refreshes the prediction chain. This quantifies the
    error-resilience side of the streaming substrate (the paper's group
    studied exactly this trade in the PBPAIR line of work) and, for the
    annotation pipeline, shows that backlight annotations shipped
    reliably out-of-band stay valid even when the video is damaged. *)

type packetized = {
  info : Codec.Decoder.stream_info;
  payloads : string array;  (** one byte string per coded frame *)
  frame_types : Codec.Stream.frame_type array;
}

val packetize : Codec.Encoder.encoded -> (packetized, string) result
(** Splits a bitstream at its (byte-aligned) frame boundaries. *)

type received = {
  psnr : float array;
      (** per frame, the PSNR (dB) of the picture shown against the
          clean decode of the stream; [infinity] where they are
          identical, as for every frame no loss has reached *)
  concealed : int;  (** frames repeated because their data was lost *)
  drifted : int;
      (** received frames decoded against a concealed or drifted
          reference (visually degraded until the next I-frame) *)
}

val receive : packetized -> lost:bool array -> (received, string) result
(** [receive t ~lost] decodes the frames that arrived, conceals each
    lost one by repeating the previous picture (later P-frames predict
    from it and drift until the next I-frame), and scores every frame
    against the clean decode, in one pass that converts no picture to
    RGB. A frame whose prediction chain no loss has reached is the
    clean decode bit for bit, so it is decoded once and scores
    [infinity].
    From a loss until the next received I-frame a second, clean chain
    forks from the last shared reference and decodes every payload, the
    lost ones too; each frame shown in that stretch scores with
    {!Codec.Plane.squared_error_cropped}, the integers
    {!Image.Metrics.psnr} reads off the two pictures. The decoder runs
    [frame count + drifted] times. Fails only when nothing displayable
    exists yet (the very first frame is lost before any picture was
    decoded) or on corrupt payload data. *)

val mean_psnr : received -> float
(** Mean PSNR (dB) over the frames, each capped at 99 dB so identical
    frames keep the mean finite, summed in frame order. Raises
    [Invalid_argument] on an empty sequence. *)

type nack_stats = {
  nack_rounds : int;
  packets_retransmitted : int;  (** total re-sends, all rounds *)
  packets_repaired : int;  (** re-sends that actually arrived *)
  nack_time_s : float;  (** simulated time the loop consumed *)
  budget_exhausted : bool;
      (** the loop stopped because the next round would not fit in the
          deadline budget, not because everything arrived *)
}

val no_nack : nack_stats
(** The all-zero stats of a session that never NACKed. *)

val nack_retransmit :
  ?policy:Resilience.Retry.policy ->
  ?breaker:Resilience.Breaker.t ->
  fault:Fault.t ->
  link:Netsim.t ->
  budget_s:float ->
  seed:int ->
  packets:string array ->
  string option array ->
  string option array * nack_stats
(** [nack_retransmit ~fault ~link ~budget_s ~seed ~packets present]
    runs a deadline-budgeted NACK/retransmit loop for the annotation
    side channel: every round NACKs the packets still missing from
    [present], waits an exponential backoff (2 ms, doubling per round)
    plus one 4 ms round trip, and receives the re-sent originals from
    [packets] through the same fault model (fresh deterministic
    sub-stream per round — bursts eventually miss a retransmission). A
    round only runs when its full simulated cost fits in [budget_s];
    annotations must arrive before the frames they govern, so the loop
    gives up rather than stall playback ([budget_exhausted]).
    [budget_s = 0.] disables retransmission entirely. Returns the
    augmented arrival array (the input is not mutated) and the loop's
    statistics.

    The loop is a {!Resilience.Retry} schedule:
    {!Resilience.Retry.default} with [budget_s] as its budget, unless
    [policy] replaces it wholesale ([budget_s] is then ignored).
    [breaker] gates each round: every repaired or still-missing packet
    feeds it as an outcome, a denial while its cooldown runs is waited
    out on the simulated clock (budget permitting), and a denial with
    no cooldown left — half-open probe quota exhausted — abandons the
    schedule. *)

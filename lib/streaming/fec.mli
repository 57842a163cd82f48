(** Forward error correction for the annotation side channel.

    The video tolerates loss through concealment; the annotation track
    does not — a missing entry leaves the client without a backlight
    level for a whole scene. The track is tiny (tens of bytes), so
    protecting it is nearly free: packets are grouped and each group
    carries one XOR parity packet, recovering any single loss per
    group (the classic RTP FEC scheme). *)

type protected_payload = {
  packets : string array;
      (** data packets followed by one parity packet per group *)
  data_packets : int;
  group_size : int;
  packet_size : int;
  payload_length : int;
}

val protect : ?packet_size:int -> ?group_size:int -> string -> protected_payload
(** [protect payload] splits into [packet_size]-byte packets (default
    64 — annotation tracks rarely need more than a few) and appends one
    parity packet per [group_size] data packets (default 4). The
    payload may be empty. Raises [Invalid_argument] on non-positive
    sizes. *)

val overhead_ratio : protected_payload -> float
(** Extra bytes shipped relative to the payload. *)

val recover : protected_payload -> present:string option array -> (string, string) result
(** [recover t ~present] reassembles the payload from the packets that
    arrived ([present.(i) = None] means packet [i] was lost, data and
    parity slots alike). Any single loss per group is repaired from the
    parity; two or more losses in one group fail with [Error]. The
    [present] array must match [t.packets] in length, and packets that
    did arrive must carry their original content. *)

type recovery = {
  payload : string;
      (** reassembled payload at its original length; bytes of
          unrecovered groups are zero-filled so surviving spans keep
          their true offsets *)
  byte_ok : bool array;
      (** per payload byte: did it arrive (or get repaired)? Length
          equals [payload_length]. *)
  failed_groups : int list;  (** ascending group indices parity could not fix *)
  repaired_packets : int;  (** data packets rebuilt from parity *)
}

val recover_detail : protected_payload -> present:string option array -> recovery
(** Like {!recover} but never all-or-nothing: groups that lost more
    than parity can repair are zero-filled and reported in
    [failed_groups] instead of failing the whole payload, so the
    caller can salvage every intact span ({!Annotation.Encoding.decode_partial}).
    Raises [Invalid_argument] on a [present] length mismatch. *)

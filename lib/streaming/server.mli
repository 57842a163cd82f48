(** The media server / proxy node.

    Stores clips, profiles them once, and serves annotated (and
    optionally pre-compensated) streams per session. "The annotations
    can be generated and added to the video stream at either the server
    or proxy node, with no changes for the client" (§3) — the proxy
    case is the same code path invoked on a live clip.

    The server is safe to drive from several pool domains at once:
    the catalog, each clip's cached profile, and the prepared-stream
    cache are all mutex-guarded, and a clip is profiled exactly once
    however many sessions race on it. All outputs stay byte-identical
    to a single-threaded run — parallelism only changes wall clock. *)

type t

type prepared = {
  session : Negotiation.session;
  track : Annotation.Track.t;
  annotation_bytes : string;  (** encoded annotation side-channel *)
  compensated : Video.Clip.t;
      (** the stream the client will display: frames pre-brightened
          according to the track *)
}

val create : unit -> t

val add_clip : t -> Video.Clip.t -> unit
(** Registers a clip under its own name; re-adding a name replaces the
    clip, drops its cached profile and evicts every prepared stream
    derived from it. *)

val clip_names : t -> string list

val profile :
  ?pool:Par.Pool.t -> t -> string -> (Annotation.Annotator.profiled, string) result
(** Cached single-pass profile of a stored clip, computed at most once
    per clip (concurrent callers block on the clip's lock and reuse
    the first result). [pool] parallelises the per-frame histogram
    pass itself — see {!Annotation.Annotator.profile}. *)

val prepare :
  ?scene_params:Annotation.Scene_detect.params ->
  ?pool:Par.Pool.t ->
  ?bulkhead:Resilience.Bulkhead.t ->
  t ->
  name:string ->
  session:Negotiation.session ->
  (prepared, string) result
(** [prepare server ~name ~session] profiles (cached), annotates for
    the session's quality, encodes the annotation track and builds the
    compensated stream. With [Server_side] mapping the track carries
    final registers for the session's device; with [Client_side] it is
    device-neutral (§4.3) and the client finishes it with
    {!Annotation.Neutral.map_to_device}. Unknown names yield [Error].

    Results are cached by (clip name, quality, device name, mapping):
    a second session with the same key is served the already-prepared
    stream. Hits and misses are counted per server ({!cache_stats}).
    Calls with explicit
    [scene_params] bypass the cache, since the key does not carry
    them.

    [bulkhead] puts the expensive annotation build inside a
    {!Resilience.Bulkhead} compartment: cache hits are always served,
    but a build the compartment sheds returns a passthrough stream
    instead — the original clip with a single full-backlight entry —
    which is never cached, so a later admitted prepare still builds
    the real thing. *)

val prepare_many :
  ?scene_params:Annotation.Scene_detect.params ->
  ?pool:Par.Pool.t ->
  ?bulkhead:Resilience.Bulkhead.t ->
  t ->
  (string * Negotiation.session) list ->
  (prepared, string) result list
(** Batch [prepare]: fans the independent (clip, session) pairs across
    [pool] (sequentially without one) and returns results in input
    order. Shared work is not repeated — a clip profiles once, and
    duplicate keys resolve to one cache entry. When [bulkhead] is
    given, each expensive build runs through it exactly as in
    [prepare]: cache hits are always served, a shed build serves the
    passthrough stream and never enters the cache. Output is the same
    list [prepare] would build one call at a time. *)

val cache_stats : t -> int * int
(** [(hits, misses)] of the prepared-stream cache since [create]. *)

val cache_size : t -> int
(** Number of distinct prepared streams currently cached. *)

val encode_video :
  ?params:Codec.Stream.params -> t -> name:string ->
  (Codec.Encoder.encoded, string) result
(** Encodes the stored clip with the codec — used to size the video
    stream the annotations ride on. *)

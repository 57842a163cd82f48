(** Session negotiation.

    §4.3: device-specific backlight levels "can be computed by either
    the server/proxy (client characteristics are sent during the
    initial negotiation phase), or by the client itself". The
    negotiation exchanges the client's device identity and desired
    quality; the server answers with the qualities it can serve and
    where the device-specific mapping will run. *)

type mapping_site =
  | Server_side  (** server knows the device and emits final registers *)
  | Client_side
      (** server emits device-neutral luminance factors; the client
          multiplies and looks its own table up *)

type client_hello = {
  device : Display.Device.t;
  requested_quality : Annotation.Quality_level.t;
}

type session = {
  device : Display.Device.t;
  quality : Annotation.Quality_level.t;
  mapping : mapping_site;
}

val offer_qualities : Annotation.Quality_level.t list
(** What the server advertises — the paper's five levels. *)

val negotiate :
  ?prefer:mapping_site -> client_hello -> (session, string) result
(** [negotiate hello] accepts any of the advertised qualities verbatim
    and snaps a [Custom] request to the nearest advertised level
    (the server pre-computes only the advertised grid, "same for all
    types of PDA clients"). Defaults to server-side mapping. *)

val annotate :
  ?scene_params:Annotation.Scene_detect.params ->
  session ->
  Annotation.Annotator.profiled ->
  Annotation.Track.t
(** [annotate session profiled] annotates a profiled clip for the
    session's mapping site: final registers for the session's device
    when [Server_side], device-neutral luminance factors when
    [Client_side] (the client finishes them with
    {!Annotation.Neutral.map_to_device}). The one place the server
    pipeline branches on where the mapping runs. *)

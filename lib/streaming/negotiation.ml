type mapping_site = Server_side | Client_side

type client_hello = {
  device : Display.Device.t;
  requested_quality : Annotation.Quality_level.t;
}

type session = {
  device : Display.Device.t;
  quality : Annotation.Quality_level.t;
  mapping : mapping_site;
}

let offer_qualities = Annotation.Quality_level.standard_grid

let nearest_offered requested =
  let loss = Annotation.Quality_level.allowed_loss requested in
  let by_distance a b =
    Float.compare
      (abs_float (Annotation.Quality_level.allowed_loss a -. loss))
      (abs_float (Annotation.Quality_level.allowed_loss b -. loss))
  in
  match List.sort by_distance offer_qualities with
  | best :: _ -> best
  | [] -> assert false

let negotiate ?(prefer = Server_side) hello =
  match Annotation.Quality_level.allowed_loss hello.requested_quality with
  | exception Invalid_argument msg -> Error msg
  | _ ->
    let quality =
      if List.exists (fun q -> Annotation.Quality_level.compare q hello.requested_quality = 0)
           offer_qualities
      then hello.requested_quality
      else nearest_offered hello.requested_quality
    in
    Ok { device = hello.device; quality; mapping = prefer }

let annotate ?scene_params s profiled =
  match s.mapping with
  | Server_side ->
    Annotation.Annotator.annotate_profiled ?scene_params ~device:s.device
      ~quality:s.quality profiled
  | Client_side ->
    (* Device-neutral: the client maps gains to registers with
       Annotation.Neutral.map_to_device after decoding. *)
    Annotation.Neutral.annotate ?scene_params ~quality:s.quality profiled

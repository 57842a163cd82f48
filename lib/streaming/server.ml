(* The server's shared state is reached from pool domains the moment
   [prepare_many] fans a sweep out, so every mutable field lives
   behind a mutex: the catalog Hashtbl behind [catalog_lock], each
   clip's cached profile behind its own [stored.lock] (so two clips
   profile concurrently but one clip profiles exactly once), and the
   prepared-stream cache behind [cache_lock]. *)

type stored = {
  clip : Video.Clip.t;
  lock : Mutex.t;
  mutable profiled : Annotation.Annotator.profiled option;  (* guarded_by: lock *)
}

(* What makes two sessions interchangeable: same clip, same quality
   level, same device (by name — device names identify device
   profiles) and same mapping site. Scene parameters are not part of
   the key, so only default-parameter prepares are cached. *)
type cache_key = {
  k_clip : string;
  k_quality : Annotation.Quality_level.t;
  k_device : string;
  k_mapping : Negotiation.mapping_site;
}

type prepared = {
  session : Negotiation.session;
  track : Annotation.Track.t;
  annotation_bytes : string;
  compensated : Video.Clip.t;
}

type t = {
  catalog : (string, stored) Hashtbl.t;  (* guarded_by: catalog_lock *)
  catalog_lock : Mutex.t;
  cache : (cache_key, prepared) Hashtbl.t;  (* guarded_by: cache_lock *)
  cache_lock : Mutex.t;
  mutable hits : int;  (* guarded_by: cache_lock *)
  mutable misses : int;  (* guarded_by: cache_lock *)
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let create () =
  {
    catalog = Hashtbl.create 16;
    catalog_lock = Mutex.create ();
    cache = Hashtbl.create 64;
    cache_lock = Mutex.create ();
    hits = 0;
    misses = 0;
  }

let add_clip t clip =
  let name = clip.Video.Clip.name in
  with_lock t.catalog_lock (fun () ->
      Hashtbl.replace t.catalog name
        { clip; lock = Mutex.create (); profiled = None });
  (* A replaced clip invalidates every prepared stream derived from
     the old one. *)
  with_lock t.cache_lock (fun () ->
      let stale =
        (* lint: allow L003 a removal set is order-free; every collected key is removed *)
        Hashtbl.fold
          (fun key _ acc -> if key.k_clip = name then key :: acc else acc)
          t.cache []
      in
      List.iter (Hashtbl.remove t.cache) stale)

let clip_names t =
  with_lock t.catalog_lock (fun () ->
      Hashtbl.fold (fun name _ acc -> name :: acc) t.catalog [])
  |> List.sort compare

let find t name =
  match with_lock t.catalog_lock (fun () -> Hashtbl.find_opt t.catalog name) with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "unknown clip %S" name)

(* Double-checked under the clip's own lock: the first session in
   computes while later ones for the same clip block and then reuse
   the result, so a clip is profiled exactly once however many pool
   domains race on it. *)
let profile_stored ?pool stored =
  with_lock stored.lock (fun () ->
      match stored.profiled with
      | Some p -> p
      | None ->
        (* lint: allow C004 profile-once by design: the clip's own leaf
           lock serialises its first profile; no other lock is ever
           taken while holding it *)
        let p = Annotation.Annotator.profile ?pool stored.clip in
        stored.profiled <- Some p;
        p)

let profile ?pool t name = Result.map (profile_stored ?pool) (find t name)

let cache_stats t = with_lock t.cache_lock (fun () -> (t.hits, t.misses))

let cache_size t = with_lock t.cache_lock (fun () -> Hashtbl.length t.cache)

let build ?scene_params ?pool stored ~session =
  let track =
    Negotiation.annotate ?scene_params session (profile_stored ?pool stored)
  in
  {
    session;
    track;
    annotation_bytes = Annotation.Encoding.encode track;
    compensated = Annotation.Compensate.clip stored.clip track;
  }

(* Shed fallback: a passthrough stream — original clip, single
   full-backlight entry covering every frame — that costs nothing to
   build. The bottom rung of the degradation ladder, served when the
   bulkhead refuses the annotation build. Not cached: a later
   admitted prepare must still build the real thing. *)
let passthrough stored ~session =
  let clip = stored.clip in
  let frames = clip.Video.Clip.frame_count in
  let entries =
    if frames = 0 then [||]
    else
      [|
        {
          Annotation.Track.first_frame = 0;
          frame_count = frames;
          register = 255;
          compensation = 1.;
          effective_max = 255;
        };
      |]
  in
  let track =
    Annotation.Track.make ~clip_name:clip.Video.Clip.name
      ~device_name:session.Negotiation.device.Display.Device.name
      ~quality:session.Negotiation.quality ~fps:clip.Video.Clip.fps
      ~total_frames:frames entries
  in
  {
    session;
    track;
    annotation_bytes = Annotation.Encoding.encode track;
    compensated = clip;
  }

let prepare ?scene_params ?pool ?bulkhead t ~name ~session =
  Result.map
    (fun stored ->
      (* The expensive annotation build runs inside the bulkhead when
         one is given; a shed serves the passthrough instead of
         building, and never enters the cache (a later admitted
         prepare must still build the real thing). [insert] is what an
         admitted build does with its result. *)
      let guarded ~insert () =
        match bulkhead with
        | None -> insert (build ?scene_params ?pool stored ~session)
        | Some b ->
          Resilience.Bulkhead.run b
            ~shed:(fun () -> passthrough stored ~session)
            (fun () -> insert (build ?scene_params ?pool stored ~session))
      in
      match scene_params with
      | Some _ ->
        (* Non-default scene parameters are not keyed; bypass the
           cache rather than serve a mismatched stream. *)
        guarded ~insert:Fun.id ()
      | None -> (
        let key =
          {
            k_clip = name;
            k_quality = session.Negotiation.quality;
            k_device = session.Negotiation.device.Display.Device.name;
            k_mapping = session.Negotiation.mapping;
          }
        in
        match
          with_lock t.cache_lock (fun () ->
              match Hashtbl.find_opt t.cache key with
              | Some p ->
                t.hits <- t.hits + 1;
                Some p
              | None ->
                t.misses <- t.misses + 1;
                None)
        with
        | Some p -> p
        | None ->
          (* Built outside [cache_lock]: annotation is the expensive
             part and must not serialise unrelated sessions. Two
             racing sessions may both build — the results are
             deterministic and identical, so first-in wins and the
             duplicate is dropped. *)
          let insert p =
            with_lock t.cache_lock (fun () ->
                match Hashtbl.find_opt t.cache key with
                | Some existing -> existing
                | None ->
                  Hashtbl.add t.cache key p;
                  p)
          in
          guarded ~insert ()))
    (find t name)

let prepare_many ?scene_params ?pool ?bulkhead t specs =
  let one (name, session) = prepare ?scene_params ?bulkhead t ~name ~session in
  match pool with
  | None -> List.map one specs
  | Some pool ->
    (* Fan the independent (clip x session) builds across the pool —
       the Fig 9/10 multi-quality / multi-device sweep in parallel.
       Results keep the input order; the inner builds run sequentially
       within their task (the fan-out is already using the domains). *)
    Par.Pool.map_list pool one specs

let encode_video ?params t ~name =
  Result.map
    (fun stored -> Codec.Encoder.encode_clip ?params stored.clip)
    (find t name)

type kind = Counter | Gauge | Histogram

type instrument =
  | C of Metrics.Counter.t
  | G of Metrics.Gauge.t
  | H of Metrics.Histogram.t

type family = {
  f_name : string;
  f_help : string;
  f_kind : kind;
  f_buckets : float array;  (* histograms only *)
  f_series : ((string * string) list, instrument) Hashtbl.t;  (* guarded_by: mutex *)
}

type t = {
  mutex : Mutex.t;
  families : (string, family) Hashtbl.t;  (* guarded_by: mutex *)
}

let create () = { mutex = Mutex.create (); families = Hashtbl.create 32 }

let default = create ()

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let normalise_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Get-or-create the series for [labels] in family [name]; [make]
   builds a fresh instrument of the right kind. *)
let series t ~name ~help ~kind ~buckets ~labels ~make =
  let labels = normalise_labels labels in
  with_lock t (fun () ->
      let family =
        match Hashtbl.find_opt t.families name with
        | Some f ->
          if f.f_kind <> kind then
            invalid_arg
              (Printf.sprintf "Obs.Registry: %s is a %s, requested as %s" name
                 (kind_name f.f_kind) (kind_name kind));
          f
        | None ->
          let f =
            {
              f_name = name;
              f_help = help;
              f_kind = kind;
              f_buckets = buckets;
              f_series = Hashtbl.create 4;
            }
          in
          Hashtbl.add t.families name f;
          f
      in
      match Hashtbl.find_opt family.f_series labels with
      | Some i -> i
      | None ->
        let i = make family in
        Hashtbl.add family.f_series labels i;
        i)

let counter ?(registry = default) ?(help = "") name labels =
  match
    series registry ~name ~help ~kind:Counter ~buckets:[||] ~labels
      ~make:(fun _ -> C (Metrics.Counter.create ()))
  with
  | C c -> c
  | _ -> assert false

let gauge ?(registry = default) ?(help = "") name labels =
  match
    series registry ~name ~help ~kind:Gauge ~buckets:[||] ~labels
      ~make:(fun _ -> G (Metrics.Gauge.create ()))
  with
  | G g -> g
  | _ -> assert false

let histogram ?(registry = default) ?(help = "")
    ?(buckets = Metrics.default_time_buckets) name labels =
  match
    series registry ~name ~help ~kind:Histogram ~buckets ~labels
      ~make:(fun f -> H (Metrics.Histogram.create ~buckets:f.f_buckets))
  with
  | H h -> h
  | _ -> assert false

(* --- snapshots ----------------------------------------------------------- *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of {
      buckets : (float * int) list;
      overflow : int;
      count : int;
      sum : float;
    }

type series = { labels : (string * string) list; value : value }

type family_snapshot = {
  family : string;
  help : string;
  kind : kind;
  series : series list;
}

type snapshot = family_snapshot list

let value_of_instrument = function
  | C c -> Counter_v (Metrics.Counter.value c)
  | G g -> Gauge_v (Metrics.Gauge.value g)
  | H h ->
    Histogram_v
      {
        buckets = Array.to_list (Metrics.Histogram.bucket_counts h);
        overflow = Metrics.Histogram.overflow h;
        count = Metrics.Histogram.count h;
        sum = Metrics.Histogram.sum h;
      }

let compare_labels a b =
  compare
    (List.map (fun (k, v) -> k ^ "\000" ^ v) a)
    (List.map (fun (k, v) -> k ^ "\000" ^ v) b)

(* The histogram NaN/negative guard counts its clamps in a process
   global (see Metrics); the default registry surfaces it as a
   synthetic read-only family so every snapshot and export shows it.
   It only appears once at least one sample was clamped, keeping
   snapshots of untouched registries unchanged. *)
let dropped_family () =
  let dropped = Metrics.dropped_samples_total () in
  if dropped = 0 then []
  else
    [
      {
        family = "obs_dropped_samples_total";
        help = "Histogram samples clamped to 0 by the NaN/negative guard";
        kind = Counter;
        series = [ { labels = []; value = Counter_v dropped } ];
      };
    ]

let snapshot ?(registry = default) () =
  with_lock registry (fun () ->
      Hashtbl.fold
        (fun _ f acc ->
          let series =
            Hashtbl.fold
              (fun labels i acc ->
                { labels; value = value_of_instrument i } :: acc)
              f.f_series []
            |> List.sort (fun a b -> compare_labels a.labels b.labels)
          in
          { family = f.f_name; help = f.f_help; kind = f.f_kind; series } :: acc)
        registry.families
        (if registry == default then dropped_family () else [])
      |> List.sort (fun a b -> String.compare a.family b.family))

let reset ?(registry = default) () =
  with_lock registry (fun () ->
      if registry == default then Metrics.reset_dropped_samples ();
      (* lint: allow L003 resets every instrument; visit order is immaterial *)
      Hashtbl.iter
        (fun _ f ->
          (* lint: allow L003 resets every instrument; visit order is immaterial *)
          Hashtbl.iter
            (fun _ i ->
              match i with
              | C c -> Metrics.Counter.reset c
              | G g -> Metrics.Gauge.reset g
              (* lint: allow C004 histogram sketch_mutex is a leaf lock
                 below the registry mutex; the order is global *)
              | H h -> Metrics.Histogram.reset h)
            f.f_series)
        registry.families)

(* --- quantiles ----------------------------------------------------------- *)

type quantile_series = {
  q_family : string;
  q_labels : (string * string) list;
  q_count : int;
  q_values : (float * float) list;
}

let default_quantiles = [ 0.5; 0.9; 0.99 ]

let quantiles ?(registry = default) ?(qs = default_quantiles) () =
  with_lock registry (fun () ->
      Hashtbl.fold
        (fun _ f acc ->
          if f.f_kind <> Histogram then acc
          else
            Hashtbl.fold
              (fun labels i acc ->
                match i with
                (* lint: allow C004 histogram sketch_mutex is a leaf lock
                   below the registry mutex; the order is global *)
                | H h when Metrics.Histogram.sketch_count h > 0 ->
                  let values =
                    List.filter_map
                      (fun q ->
                        (* lint: allow C004 same leaf-lock order as the
                           sketch_count probe above *)
                        Option.map (fun v -> (q, v)) (Metrics.Histogram.quantile h q))
                      qs
                  in
                  {
                    q_family = f.f_name;
                    q_labels = labels;
                    q_count = Metrics.Histogram.sketch_count h;
                    q_values = values;
                  }
                  :: acc
                | _ -> acc)
              f.f_series acc)
        registry.families []
      |> List.sort (fun a b ->
             match String.compare a.q_family b.q_family with
             | 0 -> compare_labels a.q_labels b.q_labels
             | c -> c))

let quantile_of_family ?(registry = default) name q =
  let series =
    with_lock registry (fun () ->
        match Hashtbl.find_opt registry.families name with
        | None -> []
        (* lint: allow L003 folded into a Float.max below, which commutes *)
        | Some f -> Hashtbl.fold (fun _ i acc -> i :: acc) f.f_series [])
  in
  List.fold_left
    (fun acc i ->
      match i with
      | H h -> (
        match Metrics.Histogram.quantile h q with
        | Some v -> Some (match acc with None -> v | Some w -> Float.max v w)
        | None -> acc)
      | _ -> acc)
    None series

let family_count ?(registry = default) () =
  with_lock registry (fun () -> Hashtbl.length registry.families)

(* --- renderers ----------------------------------------------------------- *)

let label_string labels =
  match labels with
  | [] -> ""
  | _ ->
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    ^ "}"

let pp_value ppf = function
  | Counter_v n -> Format.fprintf ppf "%d" n
  | Gauge_v v -> Format.fprintf ppf "%.3f" v
  | Histogram_v { count; sum; _ } ->
    if count = 0 then Format.fprintf ppf "count=0"
    else
      Format.fprintf ppf "count=%d sum=%.6g mean=%.6g" count sum
        (sum /. float_of_int count)

let pp_text ppf (snap : snapshot) =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun f ->
      List.iter
        (fun s ->
          Format.fprintf ppf "%-52s %a@,"
            (f.family ^ label_string s.labels)
            pp_value s.value)
        f.series)
    snap;
  Format.fprintf ppf "@]"

let json_of_value = function
  | Counter_v n -> Json.Obj [ ("counter", Json.Int n) ]
  | Gauge_v v -> Json.Obj [ ("gauge", Json.Float v) ]
  | Histogram_v { buckets; overflow; count; sum } ->
    Json.Obj
      [
        ( "histogram",
          Json.Obj
            [
              ( "buckets",
                Json.List
                  (List.map
                     (fun (bound, n) ->
                       Json.Obj [ ("le", Json.Float bound); ("count", Json.Int n) ])
                     buckets) );
              ("overflow", Json.Int overflow);
              ("count", Json.Int count);
              ("sum", Json.Float sum);
            ] );
      ]

let to_json (snap : snapshot) =
  Json.List
    (List.map
       (fun f ->
         Json.Obj
           [
             ("name", Json.String f.family);
             ("help", Json.String f.help);
             ("kind", Json.String (kind_name f.kind));
             ( "series",
               Json.List
                 (List.map
                    (fun s ->
                      Json.Obj
                        [
                          ( "labels",
                            Json.Obj
                              (List.map (fun (k, v) -> (k, Json.String v)) s.labels)
                          );
                          ("value", json_of_value s.value);
                        ])
                    f.series) );
           ])
       snap)

(* The graceful-degradation ladder: an ordered list of fallbacks the
   client walks when fresh annotations cannot be had. Every non-fresh
   step is journaled and counted — a fallback is a decision, not an
   accident — and the deepest rung reached feeds the [ladder_depth]
   monitor series that SLO rules gate on. *)

type step = Fresh | Stale_cache | Neighbour_clamp | Full_backlight

let rank = function
  | Fresh -> 0
  | Stale_cache -> 1
  | Neighbour_clamp -> 2
  | Full_backlight -> 3

let label = function
  | Fresh -> "fresh"
  | Stale_cache -> "stale"
  | Neighbour_clamp -> "clamp"
  | Full_backlight -> "full"

let of_label = function
  | "fresh" -> Some Fresh
  | "stale" -> Some Stale_cache
  | "clamp" -> Some Neighbour_clamp
  | "full" -> Some Full_backlight
  | _ -> None

let all = [ Fresh; Stale_cache; Neighbour_clamp; Full_backlight ]

let default_steps = all

type t = {
  steps : step list;  (* sorted by rank, deduplicated *)
  mutable max_depth : int;
      (* owned_by: the session control plane, single-threaded (L012
         gates every mutator) *)
  counts : int array;  (* indexed by rank *)
}

let s_ladder_depth = Obs.Monitor.declare_series "ladder_depth"

let create ?(steps = default_steps) () =
  (* The runtime always has a floor to stand on: Fresh is where every
     scene starts, Full_backlight is the rung that cannot fail. A
     profile listing rungs out of order is the verifier's business
     (V503); here we sort and deduplicate. *)
  let steps =
    List.sort_uniq (fun a b -> compare (rank a) (rank b))
      (Fresh :: Full_backlight :: steps)
  in
  { steps; max_depth = 0; counts = Array.make 4 0 }

let steps t = t.steps

let enabled t step = List.exists (fun s -> rank s = rank step) t.steps

(* First enabled rung at or below (i.e. no shallower than) [from]. *)
let next_step t ~from =
  let r = rank from in
  match List.find_opt (fun s -> rank s >= r) t.steps with
  | Some s -> s
  | None -> Full_backlight

let note t ?(t_s = 0.) ~scene step =
  let r = rank step in
  t.counts.(r) <- t.counts.(r) + 1;
  if r > t.max_depth then t.max_depth <- r;
  Obs.Monitor.gauge s_ladder_depth (float_of_int t.max_depth);
  if r > 0 then
    Obs.Journal.record ~t_s
      (Obs.Journal.Ladder_step { scene; depth = r; step = label step })

let depth t = t.max_depth

let taken t =
  List.filter_map
    (fun s ->
      let n = t.counts.(rank s) in
      if n > 0 then Some (s, n) else None)
    all

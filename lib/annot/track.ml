type entry = {
  first_frame : int;
  frame_count : int;
  register : int;
  compensation : float;
  effective_max : int;
}

type t = {
  clip_name : string;
  device_name : string;
  quality : Quality_level.t;
  fps : float;
  total_frames : int;
  entries : entry array;
}

let validate_entry e =
  e.frame_count > 0 && e.register >= 0 && e.register <= 255
  && e.compensation >= 1.
  && e.effective_max >= 0 && e.effective_max <= 255

let make ~clip_name ~device_name ~quality ~fps ~total_frames entries =
  if fps <= 0. then invalid_arg "Track.make: fps must be positive";
  if total_frames < 0 then invalid_arg "Track.make: negative frame count";
  let covered =
    Array.fold_left
      (fun next e ->
        if not (validate_entry e) then invalid_arg "Track.make: invalid entry";
        if e.first_frame <> next then invalid_arg "Track.make: entries not contiguous";
        next + e.frame_count)
      0 entries
  in
  if covered <> total_frames then
    invalid_arg "Track.make: entries do not cover the clip";
  { clip_name; device_name; quality; fps; total_frames; entries }

let lookup t frame =
  if frame < 0 || frame >= t.total_frames then
    invalid_arg "Track.lookup: frame out of range";
  let rec bisect lo hi =
    if lo >= hi then t.entries.(lo)
    else
      let mid = (lo + hi + 1) / 2 in
      if t.entries.(mid).first_frame <= frame then bisect mid hi
      else bisect lo (mid - 1)
  in
  bisect 0 (Array.length t.entries - 1)

let expand f t =
  let out = Array.make t.total_frames (f t.entries.(0)) in
  Array.iter
    (fun e ->
      for i = e.first_frame to e.first_frame + e.frame_count - 1 do
        out.(i) <- f e
      done)
    t.entries;
  out

let register_track t =
  if t.total_frames = 0 then [||] else expand (fun e -> e.register) t

let switch_count t =
  let regs = register_track t in
  let switches = ref 0 in
  for i = 1 to Array.length regs - 1 do
    if regs.(i) <> regs.(i - 1) then incr switches
  done;
  !switches

let same_settings a b =
  a.register = b.register
  && Float.equal a.compensation b.compensation
  && a.effective_max = b.effective_max

let merge_runs t =
  let merged =
    Array.fold_left
      (fun acc e ->
        match acc with
        | prev :: rest when same_settings prev e ->
          { prev with frame_count = prev.frame_count + e.frame_count } :: rest
        | _ -> e :: acc)
      [] t.entries
  in
  { t with entries = Array.of_list (List.rev merged) }

let entry_count t = Array.length t.entries

let pp ppf t =
  Format.fprintf ppf "<track %s@%s q=%a %d frames %d entries %d switches>"
    t.clip_name t.device_name Quality_level.pp t.quality t.total_frames
    (entry_count t) (switch_count t)

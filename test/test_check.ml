(* The static-verification layer: linter rules against their negative
   fixtures, the diagnostic JSON schema, and the artifact verifier
   against a corruption corpus built from pristine encodings. *)

module Diagnostic = Check.Diagnostic
module Lint = Check_lint.Lint
module Artifact = Check.Artifact
module Encoding = Annotation.Encoding

let codes ds = List.sort_uniq compare (List.map (fun d -> d.Diagnostic.code) ds)
let error_codes ds = codes (List.filter Diagnostic.is_error ds)

let check_codes what expected ds =
  Alcotest.(check (list string)) what expected (codes ds)

(* --- linter fixtures --------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let lint_fixture ?in_lib ?has_mli name =
  let path = Filename.concat "fixtures/lint" name in
  Lint.lint_source ?in_lib ?has_mli ~path (read_file path)

let test_fixtures_fire_once () =
  List.iter
    (fun (name, in_lib, has_mli, code) ->
      let ds = lint_fixture ~in_lib ~has_mli name in
      Alcotest.(check int) (name ^ " fires exactly once") 1 (List.length ds);
      check_codes name [ code ] ds)
    [
      ("l001_clock.ml", false, true, "L001");
      ("l002_random.ml", false, true, "L002");
      ("l003_hashtbl.ml", false, true, "L003");
      ("l004_swallow.ml", false, true, "L004");
      ("l005_print.ml", true, true, "L005");
      ("l006_no_mli.ml", true, false, "L006");
      ("l007_float_eq.ml", false, true, "L007");
      ("l008_bare_allow.ml", false, true, "L008");
      ("l009_domain.ml", false, true, "L009");
      ("l010_meter.ml", false, true, "L010");
      ("l011_journal.ml", false, true, "L011");
      ("l012_resilience.ml", false, true, "L012");
    ]

let test_clean_fixture () =
  check_codes "clean.ml is clean" [] (lint_fixture ~in_lib:true ~has_mli:true "clean.ml")

let test_l001_monotonic_binding () =
  (* Obs.Clock reads CLOCK_MONOTONIC through bechamel's binding; any
     other caller of that binding is an ambient clock read too, and
     the shim's reasoned allow is what keeps it clean. *)
  check_codes "direct monotonic read" [ "L001" ]
    (Lint.lint_source ~path:"lib/x/y.ml" "let t () = Monotonic_clock.now ()\n");
  check_codes "the Obs.Clock shim" []
    (Lint.lint_source ~path:"lib/obs/clock.ml" (read_file "../lib/obs/clock.ml"))

let test_l009_pool_exempt () =
  (* The pool implementation itself is the one sanctioned spawn site;
     the same source is clean when attributed to lib/par. *)
  let source = read_file "fixtures/lint/l009_domain.ml" in
  check_codes "lib/par path is exempt" []
    (Lint.lint_source ~path:"lib/par/pool.ml" source);
  check_codes "explicit in_par is exempt" []
    (Lint.lint_source ~in_par:true ~path:"fixtures/lint/l009_domain.ml" source)

let test_l010_meter_exempt () =
  (* The meter's own library and the profiler that consumes it are the
     sanctioned sampling sites; the same source is clean there, and a
     reasoned allow-comment silences the rule anywhere else. *)
  let source = read_file "fixtures/lint/l010_meter.ml" in
  check_codes "lib/power path is exempt" []
    (Lint.lint_source ~path:"lib/power/calibrate.ml" source);
  check_codes "lib/obs path is exempt" []
    (Lint.lint_source ~path:"lib/obs/profile.ml" source);
  check_codes "explicit in_power is exempt" []
    (Lint.lint_source ~in_power:true ~path:"fixtures/lint/l010_meter.ml" source);
  let allowed =
    "(* lint: allow L010 test rig owns its meter *)\n\
     let m = Power.Meter.create ()\n"
  in
  check_codes "reasoned allow silences L010" []
    (Lint.lint_source ~path:"lib/streaming/x.ml" allowed)

let test_l011_journal_exempt () =
  (* The journal library itself and the five sanctioned pipeline hook
     files may emit events; everywhere else needs a reasoned allow. *)
  let source = read_file "fixtures/lint/l011_journal.ml" in
  check_codes "lib/obs path is exempt" []
    (Lint.lint_source ~path:"lib/obs/journal.ml" source);
  check_codes "session hook is exempt" []
    (Lint.lint_source ~path:"lib/streaming/session.ml" source);
  check_codes "annotator hook is exempt" []
    (Lint.lint_source ~path:"lib/annot/annotator.ml" source);
  check_codes "explicit in_journal is exempt" []
    (Lint.lint_source ~in_journal:true ~path:"fixtures/lint/l011_journal.ml"
       source);
  let allowed =
    "(* lint: allow L011 bench instruments its own harness *)\n\
     let () = Obs.Journal.record (Obs.Journal.Scene_cut { scene = 0; frame = 0 })\n"
  in
  check_codes "reasoned allow silences L011" []
    (Lint.lint_source ~path:"lib/streaming/x.ml" allowed)

let test_l012_resilience_exempt () =
  (* The control plane itself and the three reviewed streaming
     integration files may flip breaker/ladder state; everywhere else
     needs a reasoned allow. *)
  let source = read_file "fixtures/lint/l012_resilience.ml" in
  check_codes "lib/resilience path is exempt" []
    (Lint.lint_source ~path:"lib/resilience/breaker.ml" source);
  check_codes "transport hook is exempt" []
    (Lint.lint_source ~path:"lib/streaming/transport.ml" source);
  check_codes "session hook is exempt" []
    (Lint.lint_source ~path:"lib/streaming/session.ml" source);
  check_codes "explicit in_resilience is exempt" []
    (Lint.lint_source ~in_resilience:true
       ~path:"fixtures/lint/l012_resilience.ml" source);
  let allowed =
    "(* lint: allow L012 chaos harness trips breakers on purpose *)\n\
     let trip b = Resilience.Breaker.record b ~now_s:0. ~ok:false\n"
  in
  check_codes "reasoned allow silences L012" []
    (Lint.lint_source ~path:"bench/chaos.ml" allowed)

let test_every_rule_has_a_fixture () =
  (* L000 is the parse-failure code, not a rule with a fixture. *)
  let covered =
    [
      "L001"; "L002"; "L003"; "L004"; "L005"; "L006"; "L007"; "L008"; "L009";
      "L010"; "L011"; "L012";
    ]
  in
  Alcotest.(check (list string))
    "rule registry matches fixture corpus" covered
    (List.map (fun r -> r.Lint.code) Lint.rules)

let test_unparsable_is_l000 () =
  check_codes "garbage yields L000" [ "L000" ]
    (Lint.lint_source ~path:"broken.ml" "let let let = = =")

(* --- concurrency fixtures ---------------------------------------------- *)

module Callgraph = Check_lint.Callgraph
module Concurrency = Check_lint.Concurrency

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let conc_source name ~path =
  Lint.of_string ~path (read_file (Filename.concat "fixtures/lint" name))

let conc_fixture name ~path =
  let src = conc_source name ~path in
  let g = Callgraph.build [ src ] in
  Concurrency.check g [ src ]

let test_c_fixtures_fire_once () =
  List.iter
    (fun (name, path, code) ->
      let ds = conc_fixture name ~path in
      Alcotest.(check int) (name ^ " fires exactly once") 1 (List.length ds);
      check_codes name [ code ] ds)
    [
      ("c001_state.ml", "lib/par/c001_state.ml", "C001");
      ("c002_cache.ml", "lib/par/c002_cache.ml", "C002");
      ("c003_leak.ml", "lib/par/c003_leak.ml", "C003");
      ("c004_nested.ml", "lib/par/c004_nested.ml", "C004");
      ("c005_cycle.ml", "lib/par/c005_cycle.ml", "C005");
      ("c006_primitive.ml", "lib/annot/c006_primitive.ml", "C006");
    ]

let test_c_clean_fixture () =
  check_codes "c_clean.ml is clean" []
    (conc_fixture "c_clean.ml" ~path:"lib/par/c_clean.ml")

let test_c001_scope () =
  (* The same mutable state is quiet outside the par-linked tree
     (though the raw Atomic use still needs a sanctioned home). *)
  Alcotest.(check bool) "no C001 on a bench path" true
    (not
       (List.mem "C001"
          (codes (conc_fixture "c001_state.ml" ~path:"bench/c001_state.ml"))))

let test_every_c_rule_has_a_fixture () =
  Alcotest.(check (list string))
    "concurrency registry matches fixture corpus"
    [ "C001"; "C002"; "C003"; "C004"; "C005"; "C006" ]
    (List.map (fun r -> r.Lint.code) Concurrency.rules)

let test_c_deterministic_order () =
  (* Same diagnostics, same order, whatever order the sources arrive
     in — the contract `lint --json` relies on. *)
  let s1 = conc_source "c001_state.ml" ~path:"lib/par/c001_state.ml" in
  let s2 = conc_source "c003_leak.ml" ~path:"lib/par/c003_leak.ml" in
  let run srcs = Concurrency.check (Callgraph.build srcs) srcs in
  let a = run [ s1; s2 ] and b = run [ s2; s1 ] in
  Alcotest.(check bool) "order-insensitive" true (a = b);
  Alcotest.(check bool) "sorted" true (List.sort Diagnostic.compare a = a)

(* --- call graph -------------------------------------------------------- *)

let graph_of sources =
  Callgraph.build (List.map (fun (path, text) -> Lint.of_string ~path text) sources)

let internal_callee g ~def ~target =
  List.exists
    (fun (c, _) -> c = Callgraph.Internal target)
    (Callgraph.callees g def)

let test_callgraph_cross_module () =
  (* Sibling units of the same library resolve through the module
     name; another library resolves through its public name. *)
  let g =
    graph_of
      [
        ("lib/x/a.ml", "let tick () = 1\n");
        ("lib/x/b.ml", "let run () = A.tick ()\n");
        ("lib/streaming/server.ml", "let prepare () = 2\n");
        ("lib/y/c.ml", "let go () = Streaming.Server.prepare ()\n");
      ]
  in
  Alcotest.(check bool) "sibling unit" true
    (internal_callee g
       ~def:(Callgraph.node_id "lib/x/b.ml" "run")
       ~target:(Callgraph.node_id "lib/x/a.ml" "tick"));
  Alcotest.(check bool) "library-qualified" true
    (internal_callee g
       ~def:(Callgraph.node_id "lib/y/c.ml" "go")
       ~target:(Callgraph.node_id "lib/streaming/server.ml" "prepare"))

let test_callgraph_shadowing () =
  let g =
    graph_of
      [
        ( "lib/x/s.ml",
          "let f () = 1\nlet g () = f ()\nlet f () = 2\nlet h () = f ()\n" );
      ]
  in
  let callee_of name =
    match Callgraph.callees g (Callgraph.node_id "lib/x/s.ml" name) with
    | [ (Callgraph.Internal id, _) ] -> id
    | _ -> Alcotest.fail ("unexpected callees for " ^ name)
  in
  Alcotest.(check bool) "g and h bind different f's" true
    (callee_of "g" <> callee_of "h")

let test_callgraph_local_shadowing () =
  (* A locally rebound name must not create an edge to the top-level
     binding it shadows. *)
  let g =
    graph_of
      [ ("lib/x/l.ml", "let f () = 1\n\nlet s x =\n  let f y = y in\n  f x\n") ]
  in
  let cs = Callgraph.callees g (Callgraph.node_id "lib/x/l.ml" "s") in
  Alcotest.(check bool) "local f suppresses the edge" true
    (not
       (List.exists
          (fun (c, _) ->
            match c with
            | Callgraph.Internal id -> Callgraph.display_name id = "f"
            | Callgraph.External _ -> false)
          cs))

let test_callgraph_local_open () =
  let g =
    graph_of
      [
        ( "lib/x/o.ml",
          "module M = struct\n  let inner () = 7\nend\n\n\
           let use () =\n  let open M in\n  inner ()\n" );
      ]
  in
  Alcotest.(check bool) "let open resolves inner" true
    (internal_callee g
       ~def:(Callgraph.node_id "lib/x/o.ml" "use")
       ~target:(Callgraph.node_id "lib/x/o.ml" "M.inner"))

let test_transitive_effects () =
  (* The entry point is flagged with a witness chain; the direct
     caller is the per-file pass's finding, not repeated here. *)
  let g =
    graph_of
      [
        ("lib/x/clock.ml", "let tick () = Unix.gettimeofday ()\n");
        ("lib/x/entry.ml", "let run () = Clock.tick ()\n");
      ]
  in
  match Callgraph.transitive_effects g with
  | [ d ] ->
    Alcotest.(check string) "code" "L001" d.Diagnostic.code;
    Alcotest.(check string) "flagged at the entry" "lib/x/entry.ml"
      d.Diagnostic.file;
    Alcotest.(check bool) "witness names the chain" true
      (contains d.Diagnostic.message "tick"
      && contains d.Diagnostic.message "Unix.gettimeofday")
  | ds ->
    Alcotest.fail
      (Printf.sprintf "expected exactly one transitive finding, got %d"
         (List.length ds))

let test_transitive_effects_allow_cut () =
  (* A reasoned allow at the intermediate call site is a trust
     boundary: propagation stops there. *)
  let g =
    graph_of
      [
        ("lib/x/clock.ml", "let tick () = Unix.gettimeofday ()\n");
        ( "lib/x/entry.ml",
          "let run () =\n\
           \  (* lint: allow L001 replay harness reads the wall clock *)\n\
           \  Clock.tick ()\n" );
      ]
  in
  check_codes "allow cuts the chain" [] (Callgraph.transitive_effects g)

let test_allows_listing () =
  let src =
    Lint.of_string ~path:"lib/x/a.ml"
      "(* lint: allow L001 bench rig owns its clock *)\n\
       let t () = Unix.gettimeofday ()\n"
  in
  match Lint.allows src with
  | [ a ] ->
    Alcotest.(check string) "code" "L001" a.Lint.a_code;
    Alcotest.(check string) "reason" "bench rig owns its clock" a.Lint.a_reason
  | l ->
    Alcotest.fail (Printf.sprintf "expected one allow, got %d" (List.length l))

(* --- diagnostic JSON schema -------------------------------------------- *)

let sample_diags =
  [
    Diagnostic.v ~code:"L004" ~severity:Diagnostic.Error ~file:"lib/x.ml"
      ~line:12 ~col:4 "swallowed";
    Diagnostic.v ~code:"V106" ~severity:Diagnostic.Warning ~file:"t.bin"
      "off-grid quality";
  ]

(* The README schema, read back field by field. *)
let fields_of_json j =
  let open Obs.Json in
  match
    ( member "file" j,
      member "line" j,
      member "col" j,
      member "code" j,
      member "severity" j,
      member "message" j )
  with
  | ( Some (String file),
      Some (Int line),
      Some (Int col),
      Some (String code),
      Some (String severity),
      Some (String message) ) ->
    Some (file, line, col, code, severity, message)
  | _ -> None

let fields (d : Diagnostic.t) =
  Some
    ( d.file,
      d.line,
      d.col,
      d.code,
      Diagnostic.severity_name d.severity,
      d.message )

let test_json_round_trip () =
  List.iter
    (fun d ->
      Alcotest.(check bool)
        "round trip" true
        (fields_of_json (Diagnostic.to_json d) = fields d))
    sample_diags

let test_json_wire_round_trip () =
  (* The same path `lint --json` output takes: render to a string,
     re-parse, read each element back. *)
  let rendered =
    Obs.Json.to_string (Obs.Json.List (List.map Diagnostic.to_json sample_diags))
  in
  match Obs.Json.of_string rendered with
  | Error msg -> Alcotest.fail msg
  | Ok (Obs.Json.List items) ->
    Alcotest.(check bool)
      "wire round trip" true
      (List.map fields_of_json items = List.map fields sample_diags)
  | Ok _ -> Alcotest.fail "expected a JSON array"

(* --- annotation corpus ------------------------------------------------- *)

let entry ~first_frame ~frame_count ~register =
  {
    Annotation.Track.first_frame;
    frame_count;
    register;
    compensation = 1.25;
    effective_max = 200;
  }

(* Three runs with distinct registers so merge_runs keeps all three. *)
let track =
  Annotation.Track.make ~clip_name:"clip" ~device_name:"ipaq_h5555"
    ~quality:Annotation.Quality_level.Loss_10 ~fps:12. ~total_frames:90
    [|
      entry ~first_frame:0 ~frame_count:30 ~register:40;
      entry ~first_frame:30 ~frame_count:30 ~register:200;
      entry ~first_frame:60 ~frame_count:30 ~register:90;
    |]

let n_records = 3
let blob = Encoding.encode track
let rsize = Encoding.record_size
let records_offset b = String.length b - (n_records * rsize)
let hcrc_offset b = records_offset b - 4

let set_u24 b off v =
  for k = 0 to 2 do
    Bytes.set_uint8 b (off + k) ((v lsr (8 * k)) land 0xff)
  done

let set_u32 b off v =
  for k = 0 to 3 do
    Bytes.set_uint8 b (off + k) ((v lsr (8 * k)) land 0xff)
  done

(* Tamper with the blob, then (optionally) recompute the CRCs an
   attacker in control of the bytes could also recompute — so the
   *semantic* checks are exercised, not just the checksums. *)
let patched ?(fix_record = -1) ?(fix_header = false) f =
  let b = Bytes.of_string blob in
  f b;
  if fix_record >= 0 then begin
    let off = records_offset blob + (fix_record * rsize) in
    set_u32 b (off + 11)
      (Wire.Binary.crc32_sub (Bytes.to_string b) ~pos:off ~len:(rsize - 4))
  end;
  if fix_header then
    set_u32 b (hcrc_offset blob)
      (Wire.Binary.crc32_sub (Bytes.to_string b) ~pos:0 ~len:(hcrc_offset blob));
  Bytes.to_string b

let check = Artifact.check_annotation ~file:"t.bin"

let test_pristine_v2 () = check_codes "pristine v2" [] (check blob)
(* Wire v1 is retired: a v1 blob is an unknown version, both to the
   checker and to [lint verify]'s file dispatch. *)
let test_v1_unknown_version () =
  check_codes "V102" [ "V102" ] (check (Wire_v1.blob ()));
  let path = Filename.temp_file "track" ".bin" in
  Out_channel.with_open_bin path (fun oc -> output_string oc (Wire_v1.blob ()));
  let ds = Artifact.check_file path in
  Sys.remove path;
  check_codes "verify V102" [ "V102" ] ds

let test_bad_magic () =
  check_codes "V101" [ "V101" ] (check ("XXXX" ^ String.sub blob 4 (String.length blob - 4)))

let test_bad_version () =
  let b = patched ~fix_header:true (fun b -> Bytes.set_uint8 b 4 7) in
  check_codes "V102" [ "V102" ] (check b)

let test_header_truncated () =
  check_codes "V103" [ "V103" ] (check (String.sub blob 0 8))

let test_header_crc () =
  (* Flip a clip-name byte without fixing the CRC: framing stays
     parsable, the checksum catches the lie. *)
  let b = patched (fun b -> Bytes.set_uint8 b 10 (Bytes.get_uint8 b 10 lxor 0xff)) in
  check_codes "V104" [ "V104" ] (check b)

let test_record_crc () =
  let b =
    patched (fun b ->
        let off = records_offset blob + rsize + 6 in
        Bytes.set_uint8 b off (Bytes.get_uint8 b off lxor 0x01))
  in
  check_codes "V108" [ "V108" ] (check b)

let test_truncated_records () =
  check_codes "V107" [ "V107" ]
    (check (String.sub blob 0 (String.length blob - 7)))

let test_monotonicity () =
  let b =
    patched ~fix_record:1 (fun b ->
        set_u24 b (records_offset blob + rsize) 31)
  in
  check_codes "V109" [ "V109" ] (check b)

let test_frame_span () =
  let b =
    patched ~fix_record:2 (fun b ->
        set_u24 b (records_offset blob + (2 * rsize) + 3) 99)
  in
  check_codes "V110" [ "V110" ] (check b)

let test_compensation () =
  let b =
    patched ~fix_record:0 (fun b -> set_u24 b (records_offset blob + 7) 100)
  in
  check_codes "V111" [ "V111" ] (check b)

let test_backlight_range () =
  let tiny = { Display.Device.ipaq_h5555 with Display.Device.backlight_levels = 8 } in
  let ds =
    Artifact.check_annotation ~find_device:(fun _ -> Some tiny) ~file:"t.bin" blob
  in
  check_codes "V112" [ "V112" ] ds

let test_coverage () =
  (* Drop the last record and adjust the count; header CRC fixed up,
     so only the coverage check can object. *)
  let shorter = String.sub blob 0 (String.length blob - rsize) in
  let b = Bytes.of_string shorter in
  Bytes.set_uint8 b (hcrc_offset blob - 1) 2;
  set_u32 b (hcrc_offset blob)
    (Wire.Binary.crc32_sub (Bytes.to_string b) ~pos:0 ~len:(hcrc_offset blob));
  check_codes "V114" [ "V114" ] (check (Bytes.to_string b))

let test_off_grid_quality () =
  (* Quality permille 100 -> 99: still a 1-byte varint, CRC fixed up;
     an off-grid but in-range quality is a warning, not an error. *)
  let b = patched ~fix_header:true (fun b -> Bytes.set_uint8 b 5 99) in
  let ds = check b in
  check_codes "V106" [ "V106" ] ds;
  Alcotest.(check int) "warning only" 0 (Diagnostic.errors ds)

(* Hand-built header declaring 2^40 records over an empty payload,
   with a *valid* CRC — the case that must be caught by arithmetic,
   not checksum. *)
let huge_count_blob =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "ANPW";
  Buffer.add_char buf '\002';
  let varint n =
    let n = ref n in
    let continue = ref true in
    while !continue do
      let b = !n land 0x7f in
      n := !n lsr 7;
      if !n = 0 then begin
        Buffer.add_char buf (Char.chr b);
        continue := false
      end
      else Buffer.add_char buf (Char.chr (b lor 0x80))
    done
  in
  varint 100;
  varint 12_000;
  varint 90;
  varint 4;
  Buffer.add_string buf "clip";
  varint 6;
  Buffer.add_string buf "device";
  varint (1 lsl 40);
  let header = Buffer.contents buf in
  let crc = Wire.Binary.crc32 header in
  let b = Bytes.create 4 in
  set_u32 b 0 crc;
  header ^ Bytes.to_string b

let test_huge_count_flagged () =
  check_codes "V107 on huge count" [ "V107" ] (check huge_count_blob)

(* --- encoding hardening regressions ------------------------------------ *)

let is_error = function Error _ -> true | Ok _ -> false

let test_decode_rejects_huge_count () =
  Alcotest.(check bool) "decode returns Error, no exception" true
    (is_error (Encoding.decode huge_count_blob));
  Alcotest.(check bool) "decode_partial returns Error, no exception" true
    (is_error (Encoding.decode_partial huge_count_blob))

let test_decode_rejects_truncation () =
  let cut = String.sub blob 0 (String.length blob - 7) in
  Alcotest.(check bool) "decode" true (is_error (Encoding.decode cut));
  Alcotest.(check bool) "decode_partial" true
    (is_error (Encoding.decode_partial cut))

let test_decode_rejects_varint_overflow () =
  let b = "ANPW\002" ^ String.make 9 '\xff' in
  Alcotest.(check bool) "decode" true (is_error (Encoding.decode b))

(* A clip-name length of max_int: the bounds check must not overflow
   into accepting it. *)
let test_decode_rejects_huge_name () =
  let b = "ANPW\002\x64\xe0\x5d\x5a" ^ String.make 8 '\xff' ^ "\x3f" ^ "clip" in
  Alcotest.(check bool) "decode" true (is_error (Encoding.decode b));
  Alcotest.(check bool) "decode_partial" true
    (is_error (Encoding.decode_partial b));
  check_codes "verifier" [ "V105" ] (check b)

(* Quality 1001 permille, a two-byte varint where the pristine blob
   has 100's one byte, with the header CRC recomputed: a well-formed
   header whose loss fraction is above 1. *)
let test_decode_rejects_quality_above_1000 () =
  let h = hcrc_offset blob in
  let header = Bytes.of_string ("ANPW\002\xe9\x07" ^ String.sub blob 6 (h - 6) ^ "CRC.") in
  let covered = Bytes.length header - 4 in
  set_u32 header covered (Wire.Binary.crc32_sub (Bytes.to_string header) ~pos:0 ~len:covered);
  let b = Bytes.to_string header ^ String.sub blob (h + 4) (String.length blob - h - 4) in
  Alcotest.(check bool) "decode" true (is_error (Encoding.decode b));
  Alcotest.(check bool) "decode_partial" true
    (is_error (Encoding.decode_partial b));
  check_codes "verifier" [ "V105" ] (check b)

(* --- verifier/decoder agreement ----------------------------------------- *)

(* A random track, encoded, then damaged: a few byte flips, the CRCs
   optionally recomputed at their pristine offsets (so the semantic
   checks, not just the checksums, see the damage), and an optional
   cut. *)
let mutated_stream rng =
  let int n = Random.State.int rng n in
  let n = int 6 in
  let next = ref 0 in
  let entries =
    Array.init n (fun _ ->
        let frame_count = 1 + int 40 in
        let e =
          {
            Annotation.Track.first_frame = !next;
            frame_count;
            register = int 256;
            compensation = float_of_int (4096 + int 8000) /. 4096.;
            effective_max = int 256;
          }
        in
        next := !next + frame_count;
        e)
  in
  let quality =
    List.nth
      Annotation.Quality_level.[ Lossless; Loss_5; Loss_10; Custom 0.123 ]
      (int 4)
  in
  let track =
    Annotation.Track.make ~clip_name:"clip"
      ~device_name:(if int 2 = 0 then "ipaq_h5555" else "unknown")
      ~quality ~fps:(List.nth [ 8.; 12.5; 30. ] (int 3)) ~total_frames:!next
      entries
  in
  let pristine = Encoding.encode track in
  let records =
    Array.length (Annotation.Track.merge_runs track).Annotation.Track.entries
  in
  let hcrc = String.length pristine - (records * rsize) - 4 in
  let b = Bytes.of_string pristine in
  for _ = 1 to int 4 do
    let off = int (Bytes.length b) in
    Bytes.set_uint8 b off (Bytes.get_uint8 b off lxor (1 + int 255))
  done;
  if int 2 = 0 then begin
    set_u32 b hcrc (Wire.Binary.crc32_sub (Bytes.to_string b) ~pos:0 ~len:hcrc);
    for r = 0 to records - 1 do
      let off = hcrc + 4 + (r * rsize) in
      set_u32 b (off + rsize - 4)
        (Wire.Binary.crc32_sub (Bytes.to_string b) ~pos:off ~len:(rsize - 4))
    done
  end;
  let s = Bytes.to_string b in
  if int 3 = 0 then String.sub s 0 (int (String.length s)) else s

let prop_verifier_clean_decodes =
  QCheck2.Test.make ~count:5000
    ~name:"no verifier error means decode is Ok, and salvage agrees"
    ~print:string_of_int QCheck2.Gen.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let data = if seed land 1 = 0 then mutated_stream rng else Raw_stream.random rng in
      (* V112 judges the register against a catalogue panel, which no
         decoder knows. *)
      let clean =
        List.for_all
          (fun (d : Diagnostic.t) -> d.code = "V112" || not (Diagnostic.is_error d))
          (check data)
      in
      match Encoding.decode data with
      | Error _ -> not clean
      | Ok track -> (
        clean
        && (match Encoding.decode (Encoding.encode track) with
           | Ok again -> again = Annotation.Track.merge_runs track
           | Error _ -> false
           | exception Invalid_argument _ -> false)
        &&
        match Encoding.decode_partial data with
        | Error _ -> false
        | Ok p ->
          p.Encoding.corrupt_records = 0
          && p.Encoding.missing_records = 0
          && Array.to_list p.Encoding.records
             = List.map
                 (fun e -> Encoding.Intact e)
                 (Array.to_list track.Annotation.Track.entries)))

(* The hostile streams that used to decode as partials the client
   could not patch. *)
let test_hostile_streams () =
  let expect name codes salvage =
    let data = List.assoc name (Raw_stream.hostile 90) in
    check_codes name codes (check data);
    Alcotest.(check bool) (name ^ ": decode") true (is_error (Encoding.decode data));
    match (Encoding.decode_partial data, salvage) with
    | Error _, None -> ()
    | Ok p, Some records ->
      Alcotest.(check (list string))
        (name ^ ": salvage") records
        (Array.to_list
           (Array.map
              (function
                | Encoding.Intact _ -> "intact" | Lost -> "lost" | Corrupt -> "corrupt")
              p.Encoding.records))
    | Ok _, None -> Alcotest.fail (name ^ ": salvage should fail")
    | Error msg, Some _ -> Alcotest.fail (name ^ ": " ^ msg)
  in
  expect "gap" [ "V109" ] (Some [ "intact"; "corrupt" ]);
  expect "short" [ "V114" ] (Some [ "intact"; "corrupt" ]);
  expect "fps zero" [ "V105" ] None;
  (* No records at all for a non-empty clip is the coverage rule on
     the header. *)
  let empty = Raw_stream.blob ~total_frames:10 [] in
  check_codes "empty" [ "V114" ] (check empty);
  Alcotest.(check bool) "empty: salvage" true (is_error (Encoding.decode_partial empty));
  Alcotest.(check bool) "empty clip" true
    (Result.is_ok (Encoding.decode (Raw_stream.blob ~total_frames:0 [])))

(* After a corrupt record the next one may start anywhere from the
   last intact end on, but not before it. *)
let test_order_after_corrupt () =
  let open Raw_stream in
  let data =
    blob ~total_frames:90 [ record 0 30; record ~gain:100 30 30; record ~register:7 20 70 ]
  in
  check_codes "V111 then V109" [ "V109"; "V111" ] (check data);
  let ok = blob ~total_frames:90 [ record 0 30; record ~gain:100 30 30; record ~register:7 60 30 ] in
  match Encoding.decode_partial ok with
  | Ok p -> Alcotest.(check int) "one corrupt" 1 p.Encoding.corrupt_records
  | Error msg -> Alcotest.fail msg

let test_encoder_rejects () =
  let track ?(clip_name = "clip") ?(fps = 12.) ~total_frames () =
    let half = total_frames / 2 in
    Annotation.Track.make ~clip_name ~device_name:"ipaq_h5555"
      ~quality:Annotation.Quality_level.Loss_10 ~fps ~total_frames
      [|
        entry ~first_frame:0 ~frame_count:half ~register:40;
        entry ~first_frame:half ~frame_count:(total_frames - half) ~register:90;
      |]
  in
  let rejects name field t =
    match Encoding.encode t with
    | _ -> Alcotest.fail (name ^ ": encoded")
    | exception Invalid_argument msg ->
      let rec has i =
        i + String.length field <= String.length msg
        && (String.sub msg i (String.length field) = field || has (i + 1))
      in
      Alcotest.(check bool) (name ^ " names " ^ field ^ ": " ^ msg) true (has 0)
  in
  rejects "fps 2000" "fps" (track ~fps:2000. ~total_frames:90 ());
  rejects "5000-byte name" "clip name" (track ~clip_name:(String.make 5000 'n') ~total_frames:90 ());
  rejects "2^24 frames" "total_frames" (track ~total_frames:(1 lsl 24) ());
  Alcotest.(check bool) "fps 1000 is fine" true
    (Result.is_ok (Encoding.decode (Encoding.encode (track ~fps:1000. ~total_frames:90 ()))))

(* --- SLO files ---------------------------------------------------------- *)

let known =
  {
    Artifact.histograms = [ "streaming_frame_latency_seconds" ];
    names = [ "frames"; "deadline_miss"; "power_cpu_mj" ];
  }

let slo = Artifact.check_slo ~known ~file:"t.slo"

let test_slo_valid () =
  check_codes "valid slo" []
    (slo
       "# latency gate\n\
        streaming_frame_latency_seconds_p99 < 0.25\n\
        deadline_miss_rate < 0.05\n\
        power_cpu_mj < 2000\n")

let test_slo_parse_error () =
  check_codes "V201" [ "V201" ] (slo "power_cpu_mj <\n")

let test_slo_unknown_metric () =
  check_codes "V202" [ "V202" ] (slo "made_up_series_p99 < 1\n");
  check_codes "V202 gauge" [ "V202" ] (slo "made_up_gauge < 1\n")

let test_slo_contradiction () =
  check_codes "V203" [ "V203" ] (slo "power_cpu_mj < 5\npower_cpu_mj > 10\n");
  check_codes "feasible band is fine" []
    (slo "power_cpu_mj > 5\npower_cpu_mj < 10\n")

let test_slo_duplicate () =
  let ds = slo "power_cpu_mj < 5\npower_cpu_mj < 5\n" in
  check_codes "V204" [ "V204" ] ds;
  Alcotest.(check int) "warning only" 0 (Diagnostic.errors ds)

let test_slo_empty () =
  let ds = slo "# nothing here\n" in
  check_codes "V205" [ "V205" ] ds;
  Alcotest.(check int) "warning only" 0 (Diagnostic.errors ds)

let test_slo_live_catalog () =
  (* The defaults shipped in examples/default.slo must validate against
     the live metric catalog of this very process. *)
  let ds = Artifact.check_slo ~file:"default.slo" (read_file "../examples/default.slo") in
  Alcotest.(check (list string)) "examples/default.slo" [] (error_codes ds)

let test_slo_counter_family_is_no_series () =
  (* The monitor evaluates a non-quantile selector only against its own
     series, so a rule naming a registry counter would read 0 in every
     window ([_per_s]) or never be evaluated (no suffix): the live
     catalog must reject both, although the family is registered. *)
  Alcotest.(check bool) "annot_profiles_total is registered" true
    (List.exists
       (fun (f : Obs.Registry.family_snapshot) ->
         f.Obs.Registry.family = "annot_profiles_total")
       (Obs.Registry.snapshot ()));
  let live = Artifact.check_slo ~known:(Artifact.known_metrics ()) ~file:"t.slo" in
  check_codes "rate over a counter family" [ "V202" ]
    (live "annot_profiles_total_per_s < 5\n");
  check_codes "gauge over a counter family" [ "V202" ]
    (live "codec_dct_ops_total == 0\n");
  check_codes "quantile over a counter family" [ "V202" ]
    (live "codec_dct_ops_total_p99 < 1\n")

(* --- fault profiles ----------------------------------------------------- *)

let test_fault_valid () =
  check_codes "gilbert profile" []
    (Artifact.check_fault ~file:"t.fault"
       "model = gilbert\nmean_loss = 0.10\nburst_length = 4\n")

let test_fault_parse_error () =
  check_codes "V301" [ "V301" ]
    (Artifact.check_fault ~file:"t.fault" "model = banana\n")

let test_fault_noop () =
  let ds = Artifact.check_fault ~file:"t.fault" "# nothing\n" in
  check_codes "V302" [ "V302" ] ds;
  Alcotest.(check int) "warning only" 0 (Diagnostic.errors ds)

(* --- resilience profiles ------------------------------------------------- *)

let res = Artifact.check_resilience ~file:"t.resilience"

let test_resilience_shipped_profiles () =
  check_codes "examples/default.resilience" []
    (res (read_file "../examples/default.resilience"));
  check_codes "examples/aggressive.resilience" []
    (res (read_file "../examples/aggressive.resilience"))

let test_resilience_parse_error () =
  check_codes "V501 unknown key" [ "V501" ] (res "frobnicate = 1\n");
  check_codes "V501 unknown rung" [ "V501" ] (res "ladder = fresh, sideways\n");
  check_codes "V501 bad number" [ "V501" ] (res "retry_budget_s = lots\n")

let test_resilience_nonpositive () =
  check_codes "V502 retry budget" [ "V502" ] (res "retry_budget_s = 0\n");
  check_codes "V502 bulkhead capacity" [ "V502" ]
    (res "bulkhead_capacity = -1\n");
  check_codes "V502 watchdog" [ "V502" ] (res "stage_deadline_ms = 0\n")

let test_resilience_ladder_order () =
  (* The rungs parse; the shallowest-first convention is the
     verifier's: clamp before stale is a walk that would skip back. *)
  check_codes "V503" [ "V503" ] (res "ladder = fresh, clamp, stale, full\n")

let test_resilience_threshold_range () =
  check_codes "V504 above one" [ "V504" ] (res "breaker_threshold = 1.5\n");
  check_codes "V504 negative" [ "V504" ] (res "breaker_threshold = -0.1\n")

let test_resilience_noop () =
  let ds = res "# nothing configured\n" in
  check_codes "V505" [ "V505" ] ds;
  Alcotest.(check int) "warning only" 0 (Diagnostic.errors ds)

(* --- reachability -------------------------------------------------------- *)

(* Every module-path component a file mentions in an identifier,
   constructor, record label, type, module expression or module type.
   A lib unit is known by the capitalised basename of its .ml, so
   [Streaming.Session.run] names [Session]; a name two units share
   (three [Profile]s) names both, which can only over-approximate. *)
let mentioned_names (ast : Parsetree.structure) =
  let names = Hashtbl.create 64 in
  let rec add (lid : Longident.t) =
    match lid with
    | Lident s -> Hashtbl.replace names s ()
    | Ldot (l, s) ->
      add l;
      Hashtbl.replace names s ()
    | Lapply (a, b) ->
      add a;
      add b
  in
  let add_keys pairs = List.iter (fun ((l : Longident.t Location.loc), _) -> add l.txt) pairs in
  let super = Ast_iterator.default_iterator in
  let it =
    {
      super with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident l | Pexp_construct (l, _) | Pexp_field (_, l) | Pexp_setfield (_, l, _)
            ->
            add l.txt
          | Pexp_record (fields, _) -> add_keys fields
          | _ -> ());
          super.expr self e);
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_construct (l, _) | Ppat_type l -> add l.txt
          | Ppat_record (fields, _) -> add_keys fields
          | _ -> ());
          super.pat self p);
      typ =
        (fun self t ->
          (match t.ptyp_desc with
          | Ptyp_constr (l, _) -> add l.txt
          | Ptyp_package (l, constraints) ->
            add l.txt;
            add_keys constraints
          | _ -> ());
          super.typ self t);
      module_expr =
        (fun self m ->
          (match m.pmod_desc with Pmod_ident l -> add l.txt | _ -> ());
          super.module_expr self m);
      module_type =
        (fun self m ->
          (match m.pmty_desc with Pmty_ident l | Pmty_alias l -> add l.txt | _ -> ());
          super.module_type self m);
      with_constraint =
        (fun self c ->
          (match c with
          | Pwith_type (l, _) | Pwith_typesubst (l, _) | Pwith_modtype (l, _)
          | Pwith_modtypesubst (l, _) ->
            add l.txt
          | Pwith_module (a, b) | Pwith_modsubst (a, b) ->
            add a.txt;
            add b.txt);
          super.with_constraint self c);
      type_extension =
        (fun self t ->
          add t.ptyext_path.txt;
          super.type_extension self t);
    }
  in
  it.structure it ast;
  names

let test_every_lib_unit_reachable () =
  let names path =
    match (Lint.load_file path).Lint.src_ast with
    | Some ast -> mentioned_names ast
    | None -> Alcotest.failf "%s does not parse" path
  in
  let lib = List.map (fun path -> (path, names path)) (Lint.ml_files_under "../lib") in
  let unit_name path = String.capitalize_ascii (Filename.chop_extension (Filename.basename path)) in
  let reached = Hashtbl.create 256 in
  let rec visit mentioned =
    List.iter
      (fun (path, names) ->
        if (not (Hashtbl.mem reached path)) && Hashtbl.mem mentioned (unit_name path) then begin
          Hashtbl.add reached path ();
          visit names
        end)
      lib
  in
  List.iter
    (fun root -> List.iter (fun path -> visit (names path)) (Lint.ml_files_under root))
    [ "../bin"; "../bench"; "../perfbench" ];
  Alcotest.(check (list string))
    "lib units no root reaches" []
    (List.filter_map (fun (path, _) -> if Hashtbl.mem reached path then None else Some path) lib)

let () =
  Alcotest.run "check"
    [
      ( "lint rules",
        [
          Alcotest.test_case "fixtures fire once" `Quick test_fixtures_fire_once;
          Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
          Alcotest.test_case "L001 covers the monotonic binding" `Quick
            test_l001_monotonic_binding;
          Alcotest.test_case "lib/par exempt from L009" `Quick test_l009_pool_exempt;
          Alcotest.test_case "lib/power exempt from L010" `Quick test_l010_meter_exempt;
          Alcotest.test_case "hooks exempt from L011" `Quick test_l011_journal_exempt;
          Alcotest.test_case "hooks exempt from L012" `Quick test_l012_resilience_exempt;
          Alcotest.test_case "registry covered" `Quick test_every_rule_has_a_fixture;
          Alcotest.test_case "unparsable" `Quick test_unparsable_is_l000;
        ] );
      ( "concurrency rules",
        [
          Alcotest.test_case "fixtures fire once" `Quick test_c_fixtures_fire_once;
          Alcotest.test_case "clean fixture" `Quick test_c_clean_fixture;
          Alcotest.test_case "scoped to par-linked" `Quick test_c001_scope;
          Alcotest.test_case "registry covered" `Quick
            test_every_c_rule_has_a_fixture;
          Alcotest.test_case "deterministic order" `Quick
            test_c_deterministic_order;
        ] );
      ( "call graph",
        [
          Alcotest.test_case "cross-module" `Quick test_callgraph_cross_module;
          Alcotest.test_case "shadowing" `Quick test_callgraph_shadowing;
          Alcotest.test_case "local shadowing" `Quick
            test_callgraph_local_shadowing;
          Alcotest.test_case "local open" `Quick test_callgraph_local_open;
          Alcotest.test_case "transitive effects" `Quick test_transitive_effects;
          Alcotest.test_case "allow cuts the chain" `Quick
            test_transitive_effects_allow_cut;
          Alcotest.test_case "allows listing" `Quick test_allows_listing;
        ] );
      ( "diagnostic json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "wire round trip" `Quick test_json_wire_round_trip;
        ] );
      ( "annotation corpus",
        [
          Alcotest.test_case "pristine v2" `Quick test_pristine_v2;
          Alcotest.test_case "v1 is an unknown version" `Quick
            test_v1_unknown_version;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "bad version" `Quick test_bad_version;
          Alcotest.test_case "header truncated" `Quick test_header_truncated;
          Alcotest.test_case "header crc" `Quick test_header_crc;
          Alcotest.test_case "record crc" `Quick test_record_crc;
          Alcotest.test_case "truncated records" `Quick test_truncated_records;
          Alcotest.test_case "monotonicity" `Quick test_monotonicity;
          Alcotest.test_case "frame span" `Quick test_frame_span;
          Alcotest.test_case "compensation" `Quick test_compensation;
          Alcotest.test_case "backlight range" `Quick test_backlight_range;
          Alcotest.test_case "coverage" `Quick test_coverage;
          Alcotest.test_case "off-grid quality" `Quick test_off_grid_quality;
          Alcotest.test_case "huge count" `Quick test_huge_count_flagged;
        ] );
      ( "encoding hardening",
        [
          Alcotest.test_case "huge count" `Quick test_decode_rejects_huge_count;
          Alcotest.test_case "truncation" `Quick test_decode_rejects_truncation;
          Alcotest.test_case "varint overflow" `Quick test_decode_rejects_varint_overflow;
          Alcotest.test_case "huge name length" `Quick test_decode_rejects_huge_name;
          Alcotest.test_case "quality above 1000 permille" `Quick
            test_decode_rejects_quality_above_1000;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |])
            prop_verifier_clean_decodes;
          Alcotest.test_case "hostile streams" `Quick test_hostile_streams;
          Alcotest.test_case "order after a corrupt record" `Quick
            test_order_after_corrupt;
          Alcotest.test_case "encoder rejects what decode rejects" `Quick
            test_encoder_rejects;
        ] );
      ( "slo",
        [
          Alcotest.test_case "valid" `Quick test_slo_valid;
          Alcotest.test_case "parse error" `Quick test_slo_parse_error;
          Alcotest.test_case "unknown metric" `Quick test_slo_unknown_metric;
          Alcotest.test_case "contradiction" `Quick test_slo_contradiction;
          Alcotest.test_case "duplicate" `Quick test_slo_duplicate;
          Alcotest.test_case "empty" `Quick test_slo_empty;
          Alcotest.test_case "live catalog" `Quick test_slo_live_catalog;
          Alcotest.test_case "counter family is no series" `Quick
            test_slo_counter_family_is_no_series;
        ] );
      ( "fault",
        [
          Alcotest.test_case "valid" `Quick test_fault_valid;
          Alcotest.test_case "parse error" `Quick test_fault_parse_error;
          Alcotest.test_case "no-op" `Quick test_fault_noop;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "shipped profiles" `Quick
            test_resilience_shipped_profiles;
          Alcotest.test_case "parse error" `Quick test_resilience_parse_error;
          Alcotest.test_case "non-positive budgets" `Quick
            test_resilience_nonpositive;
          Alcotest.test_case "ladder order" `Quick test_resilience_ladder_order;
          Alcotest.test_case "threshold range" `Quick
            test_resilience_threshold_range;
          Alcotest.test_case "no-op" `Quick test_resilience_noop;
        ] );
      ( "reachability",
        [
          Alcotest.test_case "every lib unit is reachable from bin, bench or perfbench"
            `Quick test_every_lib_unit_reachable;
        ] );
    ]

(* Checkpoint files: the records of a Simulator.Snapshot, one flat JSON
   object per line (Obs.Json writer — no new dependencies), bracketed by
   a versioned header and an integrity trailer.  Simulator encodes and
   decodes the records; this module owns only the framing.

   The file is self-describing: it carries the full workload and fault
   trace plus every piece of dynamic state, so restore needs nothing but
   the file.  Writes are crash-safe — the stream goes to "<path>.tmp"
   and is renamed over the target only after it is complete, so an
   interrupted checkpoint never replaces a good one.  The trailer
   records the line count and the MD5 of every preceding byte; load
   verifies both before parsing, so truncation or corruption fails
   loudly with an integrity error instead of resuming from garbage. *)

(* Version 2 (moldable jobs): job rows may carry "min"/"max" size-spec
   fields, run rows an "epoch" (resize count), and the header a "shrink"
   resilience flag — each written only when it differs from the rigid
   default, so a v2 file of a rigid run is byte-identical to v1 apart
   from the version number.  Version 3: the header's configuration
   fields are [Simulator.Params.to_fields], shared with the daemon's WAL
   header — the trace name moved from key "trace" to "trace_name".  The
   loader accepts all three versions. *)
let version = 3
let oldest_readable_version = 1
let magic = "jigsaw-checkpoint"

(* The header counts the rows of each repeated kind: (header key, kind). *)
let counted =
  [
    ("jobs", "job");
    ("faults", "fault");
    ("events", "ev");
    ("running", "run");
    ("finished", "fin");
    ("samples", "smp");
  ]

let count kind records =
  List.fold_left
    (fun n r -> if Obs.Json.str r "record" = kind then n + 1 else n)
    0 records

(* Durability helpers.  [fsync_dir] is best-effort: directory fsync is
   the POSIX way to persist a rename, but some filesystems reject fsync
   on a directory fd — a failure there must not fail the save. *)
let fsync_dir dir =
  let dir = if dir = "" then Filename.current_dir_name else dir in
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

let save ?(meta = []) ~path ({ params; records } : Simulator.Snapshot.t) =
  let buf = Buffer.create 65536 in
  let line fields =
    Obs.Json.write buf fields;
    Buffer.add_char buf '\n'
  in
  line
    ([
       ("record", Obs.Json.Str magic);
       ("version", Obs.Json.Num (float_of_int version));
     ]
    @ Simulator.Params.to_fields params
    @ List.map
        (fun (key, kind) ->
          (key, Obs.Json.Num (float_of_int (count kind records))))
        counted
    @ meta);
  List.iter line records;
  (* Integrity trailer: line count and MD5 of everything above it. *)
  let body = Buffer.contents buf in
  let lines =
    String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 body
  in
  Obs.Json.write buf
    [
      ("record", Obs.Json.Str "end");
      ("lines", Obs.Json.Num (float_of_int lines));
      ("md5", Obs.Json.Str (Digest.to_hex (Digest.string body)));
    ];
  Buffer.add_char buf '\n';
  let tmp = path ^ ".tmp" in
  (* Crash-ordering discipline: the bytes must be durable before the
     rename publishes them (or a crash after the rename could expose an
     empty/stale file), and the rename itself must be durable before the
     save is reported successful (directory fsync). *)
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf);
      Out_channel.flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* Split off the integrity trailer and verify it against the body bytes
   before any record parsing. *)
let verify_integrity path content =
  let len = String.length content in
  if len = 0 || content.[len - 1] <> '\n' then
    fail "%s: missing integrity trailer (truncated?)" path;
  let trailer_start =
    match String.rindex_from_opt content (len - 2) '\n' with
    | Some i -> i + 1
    | None -> fail "%s: missing integrity trailer (truncated?)" path
  in
  let trailer_line = String.sub content trailer_start (len - 1 - trailer_start) in
  let trailer =
    try Obs.Json.parse_line trailer_line
    with Obs.Json.Parse_error m ->
      fail "%s: unparseable integrity trailer: %s" path m
  in
  (try
     if Obs.Json.str trailer "record" <> "end" then
       fail "%s: last record is not the integrity trailer (truncated?)" path
   with Obs.Json.Parse_error _ ->
     fail "%s: last record is not the integrity trailer (truncated?)" path);
  let body = String.sub content 0 trailer_start in
  let md5 = Obs.Json.str trailer "md5" in
  let actual = Digest.to_hex (Digest.string body) in
  if not (String.equal md5 actual) then
    fail "%s: integrity check failed: checksum %s does not match contents (%s)"
      path md5 actual;
  let lines =
    String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 body
  in
  let expected = Obs.Json.int trailer "lines" in
  if lines <> expected then
    fail "%s: integrity check failed: %d records, trailer says %d" path lines
      expected;
  body

let load_ext ~path =
  try
    let content =
      try In_channel.with_open_bin path In_channel.input_all
      with Sys_error m -> fail "%s" m
    in
    let body = verify_integrity path content in
    let records =
      match Obs.Reader.parse_jsonl body with
      | Ok r -> r
      | Error m -> fail "%s: %s" path m
    in
    let header, records =
      match records with
      | h :: rest -> (h, rest)
      | [] -> fail "%s: empty checkpoint" path
    in
    let jint = Obs.Json.int in
    if Obs.Json.str header "record" <> magic then
      fail "%s: not a checkpoint file (bad magic)" path;
    let v = jint header "version" in
    if v < oldest_readable_version || v > version then
      fail "%s: unsupported checkpoint version %d (this build reads %d-%d)"
        path v oldest_readable_version version;
    List.iter
      (fun (key, kind) ->
        let n = count kind records and expected = jint header key in
        if n <> expected then
          fail "%s: %d %s records, header says %d" path n kind expected)
      counted;
    let params =
      (* Versions 1-2 named the trace "trace". *)
      let fields =
        if v >= 3 then header
        else
          List.map
            (fun (k, x) -> ((if k = "trace" then "trace_name" else k), x))
            header
      in
      match Simulator.Params.of_fields fields with
      | Ok p -> p
      | Error m -> fail "%s: %s" path m
    in
    Ok ({ Simulator.Snapshot.params; records }, header)
  with
  | Bad m -> Error m
  | Obs.Json.Parse_error m -> Error (Printf.sprintf "%s: %s" path m)

let load ~path = Result.map fst (load_ext ~path)

(* ------------------------------------------------------------------ *)
(* Convenience                                                         *)
(* ------------------------------------------------------------------ *)

let write ~path sim = save ~path (Simulator.snapshot sim)

let restore ?sink ?prof ?net ~path () =
  match load ~path with
  | Error m -> Error m
  | Ok s -> Simulator.of_snapshot ?sink ?prof ?net s

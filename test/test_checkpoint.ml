(* Checkpoint/restore determinism: for arbitrary checkpoint times —
   including between a fault and its repair — checkpoint → restore →
   finish must reproduce the uninterrupted run's fingerprint bit for
   bit, for every scheme, with and without faults.  Plus: file-level
   integrity (corrupted/truncated checkpoints fail loudly) and sweep
   manifest resume (interrupted sweeps complete from their journal). *)

let radix = 8 (* 128 nodes *)

let workload =
  lazy (Trace.Synthetic.synth ~mean_size:16 ~n_jobs:60 ~seed:42 ~max_size:128)

let requeue_policy =
  {
    Sched.Simulator.requeue = true;
    resubmit_delay = 30.0;
    max_retries = 2;
    charge_lost_work = true;
    shrink = false;
  }

(* A fail/repair pair wide enough that checkpoint times strictly
   between them are easy to pick. *)
let fail_at = 400.0
let repair_at = 1400.0

let scripted_faults =
  lazy
    (Trace.Faults.scripted
       [
         { Trace.Faults.time = fail_at; kind = Fail; target = Leaf_switch 0 };
         { Trace.Faults.time = repair_at; kind = Repair; target = Leaf_switch 0 };
         { Trace.Faults.time = 900.0; kind = Fail; target = Node 77 };
         { Trace.Faults.time = 2100.0; kind = Repair; target = Node 77 };
       ])

let cfg ?(faults = Trace.Faults.none)
    ?(resilience = Sched.Simulator.no_resilience) alloc =
  Sched.Simulator.Config.make ~faults ~resilience ~radix alloc

let fingerprint_of cfg w =
  Sched.Metrics.fingerprint (Sched.Simulator.run cfg w)

let with_temp f =
  let path = Filename.temp_file "jigsaw-ckpt" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* checkpoint at [t] → write → read back → finish. *)
let fingerprint_via_checkpoint cfg w t =
  with_temp (fun path ->
      let sim = Sched.Simulator.start cfg w in
      Sched.Simulator.run_until sim t;
      Sched.Checkpoint.write ~path sim;
      match Sched.Checkpoint.restore ~path () with
      | Error m -> Alcotest.failf "restore at t=%g failed: %s" t m
      | Ok sim' ->
          let m, _ = Sched.Simulator.finish sim' in
          Sched.Metrics.fingerprint m)

let checkpoint_times prng makespan =
  [ 0.0; makespan +. 10.0 ]
  @ List.init 4 (fun _ -> Sim.Prng.float_in prng ~lo:0.0 ~hi:makespan)

let test_roundtrip_healthy () =
  let w = Lazy.force workload in
  let prng = Sim.Prng.create ~seed:7 in
  List.iter
    (fun alloc ->
      let c = cfg alloc in
      let m = Sched.Simulator.run c w in
      let expected = Sched.Metrics.fingerprint m in
      List.iter
        (fun t ->
          Alcotest.(check string)
            (Printf.sprintf "%s t=%g" alloc.Sched.Allocator.name t)
            expected
            (fingerprint_via_checkpoint c w t))
        (checkpoint_times prng m.makespan))
    Sched.Allocator.all

let test_roundtrip_faulty () =
  let w = Lazy.force workload in
  let faults = Lazy.force scripted_faults in
  let prng = Sim.Prng.create ~seed:11 in
  List.iter
    (fun alloc ->
      let c = cfg ~faults ~resilience:requeue_policy alloc in
      let m = Sched.Simulator.run c w in
      let expected = Sched.Metrics.fingerprint m in
      Alcotest.(check bool)
        (alloc.Sched.Allocator.name ^ ": faults actually fired")
        true (m.fault_events > 0);
      (* The times that stress the fault overlay: strictly between a
         fail and its repair (the degraded machine must rebuild), at the
         fault instants themselves, and a few arbitrary points. *)
      let times =
        [
          (fail_at +. repair_at) /. 2.0;
          fail_at;
          repair_at;
          950.0 (* node 77 down, leaf 0 down *);
        ]
        @ List.init 3 (fun _ -> Sim.Prng.float_in prng ~lo:0.0 ~hi:m.makespan)
      in
      List.iter
        (fun t ->
          Alcotest.(check string)
            (Printf.sprintf "%s faulty t=%g" alloc.Sched.Allocator.name t)
            expected
            (fingerprint_via_checkpoint c w t))
        times)
    Sched.Allocator.all

let test_chained_checkpoints () =
  (* checkpoint → restore → run further → checkpoint again → restore →
     finish: restores compose. *)
  let w = Lazy.force workload in
  let faults = Lazy.force scripted_faults in
  let c = cfg ~faults ~resilience:requeue_policy Sched.Allocator.jigsaw in
  let expected = fingerprint_of c w in
  let fp =
    with_temp (fun p1 ->
        with_temp (fun p2 ->
            let sim = Sched.Simulator.start c w in
            Sched.Simulator.run_until sim 500.0;
            Sched.Checkpoint.write ~path:p1 sim;
            let sim =
              match Sched.Checkpoint.restore ~path:p1 () with
              | Ok s -> s
              | Error m -> Alcotest.failf "first restore: %s" m
            in
            Sched.Simulator.run_until sim 1600.0;
            Sched.Checkpoint.write ~path:p2 sim;
            match Sched.Checkpoint.restore ~path:p2 () with
            | Ok s ->
                let m, _ = Sched.Simulator.finish s in
                Sched.Metrics.fingerprint m
            | Error m -> Alcotest.failf "second restore: %s" m))
  in
  Alcotest.(check string) "chained restores" expected fp

let test_snapshot_file_identity () =
  (* save → load is the identity on snapshots (structural equality). *)
  let w = Lazy.force workload in
  let c =
    cfg
      ~faults:(Lazy.force scripted_faults)
      ~resilience:requeue_policy Sched.Allocator.(lcs ())
  in
  let sim = Sched.Simulator.start c w in
  Sched.Simulator.run_until sim 950.0;
  let s = Sched.Simulator.snapshot sim in
  with_temp (fun path ->
      Sched.Checkpoint.save ~path s;
      match Sched.Checkpoint.load ~path with
      | Error m -> Alcotest.failf "load: %s" m
      | Ok s' ->
          if s <> s' then Alcotest.fail "snapshot changed across save/load")

(* Files written by an earlier build, and the fingerprint that build
   recorded for resuming each one: a faulted moldable TA run
   checkpointed mid-flight (after a shrink recovery, a kill and 67
   grows, with a twice-resized job running); a rigid Jigsaw run
   rewritten as a version-1 file (version field 1, none of the counters
   molding or the daemon introduced, trailer recomputed); and a
   current-version (v3) file of a faulted moldable TA run taken while
   jobs run, a resized attempt is live, faults are unrepaired, and the
   queue, the no-fit memo and the head reservation are all non-empty. *)
let fixtures =
  [
    ("fixtures/moldable-faulted.ckpt", "f7a33f35a4cc3372a9dfb898e73a0965");
    ("fixtures/rigid-v1.ckpt", "e9b13de7446f90b5aa9c9afac3f96753");
    ("fixtures/moldable-faulted-v3.ckpt", "5df8251f89bfcd3cd01e015eca8942e1");
  ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let finish_fingerprint = function
  | Error m -> Alcotest.failf "restore: %s" m
  | Ok sim ->
      let m, _ = Sched.Simulator.finish sim in
      Sched.Metrics.fingerprint m

let test_fixtures_resume () =
  List.iter
    (fun (path, expected) ->
      Alcotest.(check string)
        path expected
        (finish_fingerprint (Sched.Checkpoint.restore ~path ()));
      (* Re-saved in the current format, the snapshot reads back equal. *)
      match Sched.Checkpoint.load ~path with
      | Error m -> Alcotest.failf "%s: %s" path m
      | Ok s ->
          with_temp (fun tmp ->
              Sched.Checkpoint.save ~path:tmp s;
              match Sched.Checkpoint.load ~path:tmp with
              | Error m -> Alcotest.failf "%s re-saved: %s" path m
              | Ok s' ->
                  if s <> s' then
                    Alcotest.failf "%s changed across re-save" path))
    fixtures

(* The file format, pinned byte for byte: a current-version file loads
   and saves back to exactly its own bytes. *)
let test_fixture_resaves_bytes () =
  let path = "fixtures/moldable-faulted-v3.ckpt" in
  match Sched.Checkpoint.load ~path with
  | Error m -> Alcotest.failf "%s: %s" path m
  | Ok s ->
      with_temp (fun tmp ->
          Sched.Checkpoint.save ~path:tmp s;
          Alcotest.(check string) "re-saved bytes" (read_file path)
            (read_file tmp))

let test_snapshot_restores_independently () =
  (* The snapshot holds its own copy of the run's accumulators: the live
     run going on, and each of two restores of the same snapshot, must
     all leave the others untouched. *)
  let w = Lazy.force workload in
  let c =
    cfg
      ~faults:(Lazy.force scripted_faults)
      ~resilience:requeue_policy Sched.Allocator.jigsaw
  in
  let sim = Sched.Simulator.start c w in
  Sched.Simulator.run_until sim 950.0;
  let s = Sched.Simulator.snapshot sim in
  let live, _ = Sched.Simulator.finish sim in
  let expected = Sched.Metrics.fingerprint live in
  Alcotest.(check string) "first restore" expected
    (finish_fingerprint (Sched.Simulator.of_snapshot s));
  Alcotest.(check string) "second restore" expected
    (finish_fingerprint (Sched.Simulator.of_snapshot s))

let expect_error what = function
  | Ok _ -> Alcotest.failf "%s: corrupted checkpoint accepted" what
  | Error _ -> ()

let test_corruption_fails_loudly () =
  let w = Lazy.force workload in
  let c = cfg Sched.Allocator.jigsaw in
  let sim = Sched.Simulator.start c w in
  Sched.Simulator.run_until sim 700.0;
  with_temp (fun path ->
      Sched.Checkpoint.write ~path sim;
      let original = In_channel.with_open_bin path In_channel.input_all in
      let write s = Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc s)
      in
      (* Sanity: the pristine file loads. *)
      (match Sched.Checkpoint.load ~path with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "pristine checkpoint rejected: %s" m);
      (* Truncation: keep 40% of the bytes. *)
      write (String.sub original 0 (String.length original * 2 / 5));
      expect_error "truncated" (Sched.Checkpoint.load ~path);
      (* Trailer dropped: every record present, no integrity line. *)
      let no_trailer =
        let stop = String.rindex_from original (String.length original - 2) '\n' in
        String.sub original 0 (stop + 1)
      in
      write no_trailer;
      expect_error "no trailer" (Sched.Checkpoint.load ~path);
      (* One flipped byte in the middle of the body. *)
      let flipped = Bytes.of_string original in
      let mid = Bytes.length flipped / 2 in
      Bytes.set flipped mid
        (if Bytes.get flipped mid = '3' then '4' else '3');
      write (Bytes.to_string flipped);
      (match Sched.Checkpoint.load ~path with
      | Ok _ -> Alcotest.fail "bit-flipped checkpoint accepted"
      | Error m ->
          Alcotest.(check bool)
            "error names the integrity check" true
            (let has sub =
               let n = String.length sub and h = String.length m in
               let rec go i =
                 i + n <= h && (String.sub m i n = sub || go (i + 1))
               in
               go 0
             in
             has "integrity"));
      (* Not a checkpoint at all. *)
      write "{\"record\":\"something-else\",\"version\":1}\n";
      expect_error "foreign file" (Sched.Checkpoint.load ~path));
  expect_error "missing file"
    (Sched.Checkpoint.load ~path:"/nonexistent/jigsaw.ckpt")

(* A parseable but wrong file must be refused, not crash the loader:
   one random mutation of one body line of a radix-8 checkpoint, with
   the integrity trailer recomputed so the mutation reaches the record
   decoder, must make restore answer [Ok] or [Error] — never raise. *)
let mutation_base =
  lazy
    (let c =
       cfg
         ~faults:(Lazy.force scripted_faults)
         ~resilience:requeue_policy Sched.Allocator.jigsaw
     in
     let sim = Sched.Simulator.start c (Lazy.force workload) in
     Sched.Simulator.run_until sim 950.0;
     with_temp (fun path ->
         Sched.Checkpoint.write ~path sim;
         (* Every line but the trailer; the split leaves "" after the
            final newline. *)
         match List.rev (String.split_on_char '\n' (read_file path)) with
         | "" :: _trailer :: body -> Array.of_list (List.rev body)
         | _ -> Alcotest.fail "checkpoint does not end in a trailer line"))

let with_trailer lines =
  let body = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  let n = String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 body in
  let b = Buffer.create 128 in
  Obs.Json.write b
    [
      ("record", Obs.Json.Str "end");
      ("lines", Obs.Json.Num (float_of_int n));
      ("md5", Obs.Json.Str (Digest.to_hex (Digest.string body)));
    ];
  body ^ Buffer.contents b ^ "\n"

let mutate prng lines =
  let n = Array.length lines in
  let pick () = Sim.Prng.int_in prng ~lo:0 ~hi:(n - 1) in
  let i = pick () in
  let l = lines.(i) in
  let all = Array.to_list lines in
  match Sim.Prng.int_in prng ~lo:0 ~hi:4 with
  | 0 -> (Printf.sprintf "drop line %d" i, List.filteri (fun k _ -> k <> i) all)
  | 1 ->
      ( Printf.sprintf "duplicate line %d" i,
        List.concat (List.mapi (fun k x -> if k = i then [ x; x ] else [ x ]) all) )
  | 2 ->
      let j = pick () in
      ( Printf.sprintf "swap lines %d and %d" i j,
        List.mapi
          (fun k x -> if k = i then lines.(j) else if k = j then lines.(i) else x)
          all )
  | 3 ->
      let pos = Sim.Prng.int_in prng ~lo:0 ~hi:(String.length l - 1) in
      let bit = Sim.Prng.int_in prng ~lo:0 ~hi:7 in
      let b = Bytes.of_string l in
      Bytes.set b pos (Char.chr (Char.code l.[pos] lxor (1 lsl bit)));
      ( Printf.sprintf "flip bit %d of byte %d of line %d" bit pos i,
        List.mapi (fun k x -> if k = i then Bytes.to_string b else x) all )
  | _ ->
      let len = Sim.Prng.int_in prng ~lo:0 ~hi:(String.length l - 1) in
      ( Printf.sprintf "cut line %d to %d bytes" i len,
        List.mapi (fun k x -> if k = i then String.sub l 0 len else x) all )

let prop_mutated_checkpoint_total =
  QCheck2.Test.make ~name:"mutated checkpoint: restore is Ok or Error"
    ~count:300
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let what, lines =
        mutate (Sim.Prng.create ~seed) (Lazy.force mutation_base)
      in
      with_temp (fun path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (with_trailer lines));
          match Sched.Checkpoint.restore ~path () with
          | Ok _ | Error _ -> true
          | exception e ->
              QCheck2.Test.fail_reportf "%s: restore raised %s" what
                (Printexc.to_string e)))

(* ------------------------------------------------------------------ *)
(* Cell ids, metrics round-trip, sweep manifests                       *)
(* ------------------------------------------------------------------ *)

let small_cells () =
  let w1 = Trace.Workload.truncate (Lazy.force workload) 40 in
  let w2 =
    Trace.Synthetic.synth ~mean_size:8 ~n_jobs:40 ~seed:9 ~max_size:128
  in
  [|
    Sched.Sweep.cell (Sched.Simulator.Config.make ~radix Sched.Allocator.baseline) w1;
    Sched.Sweep.cell (Sched.Simulator.Config.make ~radix Sched.Allocator.jigsaw) w1;
    Sched.Sweep.cell ~profile:true
      (Sched.Simulator.Config.make ~radix Sched.Allocator.baseline)
      w2;
    Sched.Sweep.cell
      (Sched.Simulator.Config.make ~faults:(Lazy.force scripted_faults)
         ~resilience:requeue_policy ~radix Sched.Allocator.jigsaw)
      w2;
  |]

let test_cell_ids () =
  let cells = small_cells () in
  let ids = Array.map (fun (c : Sched.Sweep.cell) -> c.id) cells in
  let distinct = List.sort_uniq compare (Array.to_list ids) in
  Alcotest.(check int) "ids distinct" (Array.length cells)
    (List.length distinct);
  (* Stable across reconstruction, independent of the display label and
     of profiling. *)
  let c = cells.(3) in
  let again =
    Sched.Sweep.cell ~label:"something else" ~profile:true
      (Sched.Simulator.Config.make ~faults:(Lazy.force scripted_faults)
         ~resilience:requeue_policy ~radix Sched.Allocator.jigsaw)
      c.workload
  in
  Alcotest.(check string) "id stable" c.id again.id;
  Alcotest.(check string) "id recomputable" c.id (Sched.Sweep.cell_id c);
  Alcotest.(check bool) "fault axis tagged" true
    (c.id <> cells.(1).Sched.Sweep.id)

let test_metrics_manifest_roundtrip () =
  let w = Trace.Workload.truncate (Lazy.force workload) 30 in
  let m = Sched.Simulator.run (cfg (Sched.Allocator.lcs ())) w in
  let series = Sched.Metrics.series_encode m in
  match Sched.Metrics.of_json ~series (Sched.Metrics.json_fields m) with
  | Error e -> Alcotest.failf "of_json: %s" e
  | Ok m' ->
      Alcotest.(check string) "fingerprint survives the round-trip"
        (Sched.Metrics.fingerprint m)
        (Sched.Metrics.fingerprint m')

let test_sweep_manifest_resume () =
  let cells = small_cells () in
  let baseline = Sched.Sweep.run ~jobs:1 cells in
  let fp (r : Sched.Sweep.result) = Sched.Metrics.fingerprint r.metrics in
  with_temp (fun manifest ->
      Sys.remove manifest;
      (* "Interrupted" sweep: only the first two cells completed. *)
      let partial =
        Sched.Sweep.run ~jobs:1 ~manifest (Array.sub cells 0 2)
      in
      Alcotest.(check bool) "fresh cells not marked restored" true
        (Array.for_all (fun (r : Sched.Sweep.result) -> not r.restored) partial);
      (* Resume over the full grid, in parallel: the two journaled cells
         come back from the file, the rest run. *)
      let resumed = Sched.Sweep.run ~jobs:2 ~manifest cells in
      Alcotest.(check (list bool))
        "restored flags" [ true; true; false; false ]
        (Array.to_list
           (Array.map (fun (r : Sched.Sweep.result) -> r.restored) resumed));
      Array.iteri
        (fun i r ->
          Alcotest.(check string)
            (Printf.sprintf "cell %d fingerprint" i)
            (fp baseline.(i)) (fp r))
        resumed;
      Alcotest.(check bool) "restored profile registry survives" true
        (resumed.(2).prof <> None);
      (* A third run restores everything... *)
      let all_restored = Sched.Sweep.run ~jobs:1 ~manifest cells in
      Alcotest.(check bool) "all restored" true
        (Array.for_all (fun (r : Sched.Sweep.result) -> r.restored) all_restored);
      (* ...and the journal verifies clean. *)
      (match Sched.Sweep.load_manifest manifest with
      | Error m -> Alcotest.failf "load_manifest: %s" m
      | Ok m ->
          Alcotest.(check int) "rows" (Array.length cells)
            (List.length m.rows);
          Alcotest.(check int) "no corrupt rows" 0 m.corrupt);
      (* A half-written trailing row (killed mid-append) is skipped and
         its cell re-run, not trusted. *)
      let content = In_channel.with_open_bin manifest In_channel.input_all in
      let clipped = String.sub content 0 (String.length content - 25) in
      Out_channel.with_open_bin manifest (fun oc ->
          Out_channel.output_string oc clipped);
      (match Sched.Sweep.load_manifest manifest with
      | Error m -> Alcotest.failf "load_manifest (clipped): %s" m
      | Ok m ->
          Alcotest.(check int) "clipped row rejected" 1 m.corrupt;
          Alcotest.(check int) "other rows kept"
            (Array.length cells - 1)
            (List.length m.rows));
      let after = Sched.Sweep.run ~jobs:1 ~manifest cells in
      Alcotest.(check int) "clipped cell re-ran" 1
        (Array.length
           (Array.of_list
              (List.filter
                 (fun (r : Sched.Sweep.result) -> not r.restored)
                 (Array.to_list after))));
      Array.iteri
        (fun i r ->
          Alcotest.(check string)
            (Printf.sprintf "cell %d fingerprint after repair" i)
            (fp baseline.(i)) (fp r))
        after)

let test_sweep_manifest_rejects_foreign_file () =
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "this is not a manifest\n");
      (match Sched.Sweep.load_manifest path with
      | Ok _ -> Alcotest.fail "foreign file accepted as manifest"
      | Error _ -> ());
      match Sched.Sweep.run ~jobs:1 ~manifest:path (small_cells ()) with
      | _ -> Alcotest.fail "run accepted a foreign manifest"
      | exception Invalid_argument _ -> ())

let suite =
  [
    Alcotest.test_case "healthy: checkpoint at random times" `Quick
      test_roundtrip_healthy;
    Alcotest.test_case "faulty: checkpoint incl. between fail and repair"
      `Quick test_roundtrip_faulty;
    Alcotest.test_case "chained checkpoints compose" `Quick
      test_chained_checkpoints;
    Alcotest.test_case "save/load is the identity" `Quick
      test_snapshot_file_identity;
    Alcotest.test_case "earlier builds' checkpoints resume" `Quick
      test_fixtures_resume;
    Alcotest.test_case "v3 fixture re-saves byte for byte" `Quick
      test_fixture_resaves_bytes;
    QCheck_alcotest.to_alcotest prop_mutated_checkpoint_total;
    Alcotest.test_case "one snapshot restores twice" `Quick
      test_snapshot_restores_independently;
    Alcotest.test_case "corruption fails loudly" `Quick
      test_corruption_fails_loudly;
    Alcotest.test_case "cell ids stable and distinct" `Quick test_cell_ids;
    Alcotest.test_case "metrics manifest round-trip" `Quick
      test_metrics_manifest_roundtrip;
    Alcotest.test_case "sweep manifest resume" `Quick
      test_sweep_manifest_resume;
    Alcotest.test_case "manifest rejects foreign files" `Quick
      test_sweep_manifest_rejects_foreign_file;
  ]

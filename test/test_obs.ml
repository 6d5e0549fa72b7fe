(* Observability layer: event serialization round-trips, trace
   determinism, the null-sink "changes nothing" invariant (metric
   fingerprints bit-identical with tracing on and off), profile
   registry consistency, and the trace analysis pipeline. *)

let radix = 8 (* 128 nodes *)
let nodes = 128

let config ?(alloc = Sched.Allocator.baseline) ?(faults = Trace.Faults.none)
    ?(resilience = Sched.Simulator.no_resilience) () =
  Sched.Simulator.Config.make ~faults ~resilience ~radix alloc

let workload jobs =
  Trace.Workload.create ~name:"obs-test" ~system_nodes:nodes
    (Array.of_list jobs)

let fev time kind target = { Trace.Faults.time; kind; target }

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

(* One event per payload kind, with awkward floats so the 17-digit
   round-trip is actually exercised. *)
let specimen_events =
  let open Obs.Event in
  [
    { time = 0.0;
      payload =
        Run_meta
          { trace = "t\"quoted\\name"; scheme = "LC+S"; scenario = "10%";
            radix = 16; nodes = 1024; jobs = 7 } };
    { time = 0.1; payload = Arrival { job = 3; size = 65 } };
    { time = 0.30000000000000004; payload = Pass_start { pending = 12 } };
    { time = 1e9; payload = Pass_end { started = 3 } };
    { time = 2.5;
      payload =
        Attempt
          { job = 4; ctx = Head; outcome = Fit; nodes = 8; leaf_cables = 16;
            l2_cables = 0 } };
    { time = 2.5;
      payload =
        Attempt
          { job = 5; ctx = Backfill; outcome = Infeasible; nodes = 0;
            leaf_cables = 0; l2_cables = 0 } };
    { time = 2.5;
      payload =
        Attempt
          { job = 6; ctx = Backfill; outcome = Exhausted; nodes = 0;
            leaf_cables = 0; l2_cables = 0 } };
    { time = 2.5;
      payload =
        Attempt
          { job = 7; ctx = Head; outcome = Memo_hit; nodes = 0;
            leaf_cables = 0; l2_cables = 0 } };
    { time = 3.75;
      payload =
        Start
          { job = 4; ctx = Head; nodes = 8; leaf_cables = 16; l2_cables = 4;
            est_end = 1234.5678901234567; attempt = 0 } };
    { time = 3.75;
      payload =
        Start
          { job = 9; ctx = Backfill; nodes = 1; leaf_cables = 0;
            l2_cables = 0; est_end = 4.0; attempt = 2 } };
    { time = 4.0;
      payload =
        Reservation_set
          { job = 11; at = 99.25; nodes = 128; leaf_cables = 64;
            l2_cables = 32 } };
    { time = 5.0; payload = Reservation_clear { job = 11 } };
    { time = 6.5; payload = Complete { job = 4; started = 3.75; waited = 1.25 } };
    { time = 7.0; payload = Reject { job = 13 } };
    { time = 8.0;
      payload =
        Fail { target = "leaf"; id = 5; nodes = 8; leaf_cables = 8;
               l2_cables = 0 } };
    { time = 9.0; payload = Repair { target = "l2-cable"; id = 77 } };
    { time = 10.0; payload = Kill { job = 4; attempt = 1; lost = 640.5 } };
    { time = 10.0; payload = Requeue { job = 4; attempt = 2; resume_at = 15.0 } };
    { time = 10.0; payload = Abandon { job = 21; attempt = 3 } };
  ]

let test_jsonl_roundtrip () =
  List.iter
    (fun (e : Obs.Event.t) ->
      let b = Buffer.create 128 in
      Obs.Event.to_jsonl b e;
      let line = Buffer.contents b in
      Alcotest.(check bool)
        "line ends with newline" true
        (String.length line > 0 && line.[String.length line - 1] = '\n');
      let e' = Obs.Event.of_jsonl (String.trim line) in
      if e' <> e then
        Alcotest.failf "jsonl round-trip mismatch for %a" Obs.Event.pp e)
    specimen_events

let test_csv_roundtrip () =
  List.iter
    (fun (e : Obs.Event.t) ->
      let b = Buffer.create 128 in
      Obs.Event.to_csv b e;
      let e' = Obs.Event.of_csv (String.trim (Buffer.contents b)) in
      if e' <> e then
        Alcotest.failf "csv round-trip mismatch for %a" Obs.Event.pp e)
    specimen_events

let test_parse_errors () =
  (match Obs.Event.of_jsonl "not json" with
  | _ -> Alcotest.fail "bad json accepted"
  | exception Obs.Json.Parse_error _ -> ());
  (match Obs.Event.of_csv "1,2,3" with
  | _ -> Alcotest.fail "short csv row accepted"
  | exception Obs.Json.Parse_error _ -> ());
  match Obs.Event.of_jsonl {|{"t":1,"ev":"no_such_kind"}|} with
  | _ -> Alcotest.fail "unknown kind accepted"
  | exception Obs.Json.Parse_error _ -> ()

(* A small workload exercising every simulator path: saturating head,
   reservation + backfill, a fault kill with requeue, and a repair. *)
let rich_workload () =
  let jobs =
    [
      Trace.Job.v ~id:0 ~size:nodes ~runtime:100.0 ();
      Trace.Job.v ~id:1 ~size:nodes ~runtime:10.0 ~arrival:1.0 ();
      Trace.Job.v ~id:2 ~size:8 ~runtime:20.0 ~arrival:2.0 ();
    ]
  in
  let faults =
    Trace.Faults.scripted
      [
        fev 5.0 Trace.Faults.Fail (Trace.Faults.Node 0);
        fev 6.0 Trace.Faults.Repair (Trace.Faults.Node 0);
      ]
  in
  let resilience =
    { Sched.Simulator.requeue = true; resubmit_delay = 5.0; max_retries = 3;
      charge_lost_work = true; shrink = false }
  in
  (workload jobs, faults, resilience)

let traced_run ?(prof = None) ?(faults = Trace.Faults.none)
    ?(resilience = Sched.Simulator.no_resilience) alloc w =
  let sink, events = Obs.Sink.memory () in
  let cfg =
    config ~alloc ~faults ~resilience ()
    |> Sched.Simulator.Config.with_sink sink
    |> Sched.Simulator.Config.with_prof prof
  in
  let m = Sched.Simulator.run cfg w in
  (m, events ())

let test_trace_deterministic () =
  (* Two same-seed runs must produce byte-identical event streams —
     events carry simulated time and logical payloads only.  The fault
     run additionally pins the job-id kill order across a multi-victim
     failure. *)
  let w, faults, resilience = rich_workload () in
  List.iter
    (fun alloc ->
      let _, ev1 = traced_run ~faults ~resilience alloc w in
      let _, ev2 = traced_run ~faults ~resilience alloc w in
      Alcotest.(check int)
        ("same event count: " ^ alloc.Sched.Allocator.name)
        (List.length ev1) (List.length ev2);
      if ev1 <> ev2 then
        Alcotest.failf "%s: event streams differ across identical runs"
          alloc.Sched.Allocator.name)
    [ Sched.Allocator.baseline; Sched.Allocator.jigsaw ]

let test_multi_victim_kill_order () =
  (* Fill the machine with size-2 jobs: leaf 0's 4 nodes (m1 = k/2 with
     radix 8) necessarily host at least two of them, so a leaf-switch
     failure is a multi-victim kill — and the Kill events must appear
     in job-id order at the fault instant, matching the post-mortem
     attribution. *)
  let jobs =
    List.init 64 (fun i -> Trace.Job.v ~id:(63 - i) ~size:2 ~runtime:100.0 ())
  in
  let faults =
    Trace.Faults.scripted
      [ fev 10.0 Trace.Faults.Fail (Trace.Faults.Leaf_switch 0) ]
  in
  let _, events =
    traced_run ~faults Sched.Allocator.baseline (workload jobs)
  in
  let kills =
    List.filter_map
      (fun (e : Obs.Event.t) ->
        match e.payload with Obs.Event.Kill { job; _ } -> Some job | _ -> None)
      events
  in
  Alcotest.(check bool) "multiple victims" true (List.length kills >= 2);
  Alcotest.(check (list int)) "kills in job-id order"
    (List.sort_uniq compare kills)
    kills;
  let a = Obs.Analysis.of_run { Obs.Reader.meta = None; events } in
  match a.faults with
  | [ f ] ->
      Alcotest.(check string) "target" "leaf" f.f_target;
      Alcotest.(check (list int)) "attribution" kills f.f_killed
  | l -> Alcotest.failf "expected 1 fault view, got %d" (List.length l)

(* The tentpole invariant: with the null sink (tracing off) and with a
   live sink + profiling, the metrics fingerprint is bit-identical.
   Covers every allocator on truncated presets plus a seeded fault run. *)
let test_null_sink_changes_nothing () =
  let presets = Trace.Presets.all ~full:false in
  List.iter
    (fun (entry : Trace.Presets.entry) ->
      let w = Trace.Workload.truncate entry.workload 60 in
      List.iter
        (fun alloc ->
          let cfg =
            Sched.Simulator.Config.make ~radix:entry.cluster_radix alloc
          in
          let plain = Sched.Simulator.run cfg w in
          let sink, _ = Obs.Sink.memory () in
          let traced =
            Sched.Simulator.run
              (cfg
              |> Sched.Simulator.Config.with_sink sink
              |> Sched.Simulator.Config.with_prof (Some (Obs.Prof.create ())))
              w
          in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s fingerprint" w.name
               alloc.Sched.Allocator.name)
            (Sched.Metrics.fingerprint plain)
            (Sched.Metrics.fingerprint traced))
        [ Sched.Allocator.baseline; Sched.Allocator.jigsaw ])
    presets

let test_null_sink_all_schemes_under_faults () =
  let entry =
    match Trace.Presets.by_name ~full:false "Synth-16" with
    | Some e -> e
    | None -> Alcotest.fail "Synth-16 preset missing"
  in
  let w = Trace.Workload.truncate entry.workload 80 in
  let topo = Fattree.Topology.of_radix entry.cluster_radix in
  let faults =
    Trace.Faults.generate ~seed:42 ~mtbf:2e5 ~mttr:2e4 ~horizon:5e3 topo
  in
  let resilience =
    { Sched.Simulator.requeue = true; resubmit_delay = 30.0; max_retries = 2;
      charge_lost_work = true; shrink = false }
  in
  List.iter
    (fun alloc ->
      let cfg =
        Sched.Simulator.Config.make ~faults ~resilience
          ~radix:entry.cluster_radix alloc
      in
      let plain = Sched.Simulator.run cfg w in
      let sink, _ = Obs.Sink.memory () in
      let traced =
        Sched.Simulator.run
          (cfg
          |> Sched.Simulator.Config.with_sink sink
          |> Sched.Simulator.Config.with_prof (Some (Obs.Prof.create ())))
          w
      in
      Alcotest.(check string)
        (alloc.Sched.Allocator.name ^ " fingerprint under faults")
        (Sched.Metrics.fingerprint plain)
        (Sched.Metrics.fingerprint traced))
    Sched.Allocator.all

let test_file_roundtrip () =
  (* Simulator -> sink -> file -> Reader recovers the exact stream, in
     both formats. *)
  let w, faults, resilience = rich_workload () in
  let _, mem_events =
    traced_run ~faults ~resilience Sched.Allocator.jigsaw w
  in
  List.iter
    (fun fmt ->
      let suffix =
        match fmt with Obs.Sink.Jsonl -> ".jsonl" | Obs.Sink.Csv -> ".csv"
      in
      let path = Filename.temp_file "jigsaw-obs" suffix in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_text path (fun oc ->
              let sink = Obs.Sink.to_channel fmt oc in
              let cfg =
                (Sched.Simulator.Config.with_sink sink
                   (config ~alloc:Sched.Allocator.jigsaw ~faults ~resilience
                      ()))
              in
              ignore (Sched.Simulator.run cfg w));
          match Obs.Reader.load path with
          | Error m -> Alcotest.fail m
          | Ok [ run ] ->
              (match run.meta with
              | Some meta ->
                  Alcotest.(check string) "meta trace" "obs-test" meta.trace;
                  Alcotest.(check string) "meta scheme" "Jigsaw" meta.scheme;
                  Alcotest.(check int) "meta nodes" nodes meta.nodes
              | None -> Alcotest.fail "run lost its meta event");
              let expected =
                List.filter
                  (fun (e : Obs.Event.t) ->
                    match e.payload with
                    | Obs.Event.Run_meta _ -> false
                    | _ -> true)
                  mem_events
              in
              Alcotest.(check int)
                (Obs.Sink.format_name fmt ^ " event count")
                (List.length expected)
                (List.length run.events);
              if run.events <> expected then
                Alcotest.failf "%s file round-trip diverges from memory sink"
                  (Obs.Sink.format_name fmt)
          | Ok runs -> Alcotest.failf "expected 1 run, got %d" (List.length runs)))
    [ Obs.Sink.Jsonl; Obs.Sink.Csv ]

let test_reader_splits_runs () =
  let mk scheme =
    { Obs.Event.time = 0.0;
      payload =
        Obs.Event.Run_meta
          { trace = "t"; scheme; scenario = "None"; radix = 8; nodes = 128;
            jobs = 1 } }
  in
  let arr id =
    { Obs.Event.time = 1.0; payload = Obs.Event.Arrival { job = id; size = 1 } }
  in
  let runs =
    Obs.Reader.split_runs [ arr 0; mk "A"; arr 1; arr 2; mk "B"; arr 3 ]
  in
  match runs with
  | [ headless; a; b ] ->
      Alcotest.(check bool) "headless has no meta" true (headless.meta = None);
      Alcotest.(check int) "headless events" 1 (List.length headless.events);
      Alcotest.(check string) "run A" "A"
        (match a.meta with Some m -> m.scheme | None -> "?");
      Alcotest.(check int) "A events" 2 (List.length a.events);
      Alcotest.(check string) "run B" "B"
        (match b.meta with Some m -> m.scheme | None -> "?");
      Alcotest.(check int) "B events" 1 (List.length b.events)
  | l -> Alcotest.failf "expected 3 runs, got %d" (List.length l)

let test_profile_consistency () =
  let w, faults, resilience = rich_workload () in
  let p = Obs.Prof.create () in
  let m, _ =
    traced_run ~prof:(Some p) ~faults ~resilience Sched.Allocator.jigsaw w
  in
  let c = Obs.Prof.counter p in
  (* Every claim is a start; this run completes everything it starts. *)
  Alcotest.(check int) "claims = starts"
    (c "sched/starts" + c "sched/backfill_starts")
    (c "state/claims");
  Alcotest.(check int) "releases = claims (all done)" (c "state/claims")
    (c "state/releases");
  Alcotest.(check int) "fail ops recorded" 1 (c "state/failures");
  Alcotest.(check int) "repair ops recorded" 1 (c "state/repairs");
  Alcotest.(check bool) "passes counted" true (c "sched/passes" > 0);
  Alcotest.(check bool) "engine stepped" true (c "engine/steps" > 0);
  Alcotest.(check bool) "probes fit" true (c "probe/fit" > 0);
  (* 4 starts: job0, job2 (backfill), job0 again (requeue), job1. *)
  Alcotest.(check int) "starts" 4
    (c "sched/starts" + c "sched/backfill_starts");
  Alcotest.(check int) "interrupted metric agrees" 1 m.interrupted;
  let spans = Obs.Prof.spans p in
  Alcotest.(check bool) "head-probe span present" true
    (List.mem_assoc "sched/head_probe" spans);
  List.iter
    (fun (name, (v : Obs.Prof.span_view)) ->
      Alcotest.(check bool) (name ^ " hist total = count") true
        (Array.fold_left ( + ) 0 v.sp_hist = v.sp_count);
      Alcotest.(check bool) (name ^ " mean <= max") true
        (v.sp_mean_ns <= v.sp_max_ns +. 1e-9))
    spans;
  let gauges = Obs.Prof.gauges p in
  Alcotest.(check bool) "queue-depth gauge sampled" true
    (match List.assoc_opt "gauge/queue_depth" gauges with
    | Some g -> g.Obs.Prof.g_samples > 0
    | None -> false);
  (* Profile JSON is well-formed enough to contain every section. *)
  let b = Buffer.create 256 in
  Obs.Prof.write_json b p;
  let s = Buffer.contents b in
  List.iter
    (fun key ->
      Alcotest.(check bool) ("json has " ^ key) true
        (contains s (Printf.sprintf "\"%s\"" key)))
    [ "counters"; "spans"; "gauges"; "state/claims"; "sched/head_probe" ]

let test_analysis_summary () =
  let w, faults, resilience = rich_workload () in
  let _, events = traced_run ~faults ~resilience Sched.Allocator.jigsaw w in
  let runs = Obs.Reader.split_runs events in
  let run = List.hd runs in
  let a = Obs.Analysis.of_run run in
  Alcotest.(check int) "3 jobs" 3 (List.length a.timelines);
  Alcotest.(check int) "all completed" 3
    (List.length
       (List.filter
          (fun (tl : Obs.Analysis.timeline) -> tl.fate = Obs.Analysis.Completed)
          a.timelines));
  (* Job 0: killed at t=5 and restarted — two starts, one kill. *)
  let tl0 =
    List.find (fun (tl : Obs.Analysis.timeline) -> tl.id = 0) a.timelines
  in
  Alcotest.(check int) "job 0 restarted" 2 (List.length tl0.starts);
  Alcotest.(check (list (float 1e-9))) "job 0 killed at 5" [ 5.0 ] tl0.kills;
  Alcotest.(check int) "4 starts -> 4 waits" 4 (Array.length a.waits);
  Alcotest.(check bool) "queue sampled" true (Array.length a.queue_depths > 0);
  Alcotest.(check int) "one requeue" 1 a.requeues;
  Alcotest.(check int) "one repair" 1 a.repairs;
  (match a.faults with
  | [ f ] -> Alcotest.(check (list int)) "fault killed job 0" [ 0 ] f.f_killed
  | l -> Alcotest.failf "expected 1 fault, got %d" (List.length l));
  (* The report renders and mentions the load-bearing sections. *)
  let report = Format.asprintf "%a" (Obs.Analysis.pp_summary ~timeline:true) a in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("summary mentions " ^ needle) true
        (contains report needle))
    [ "scheme=Jigsaw"; "queue depth"; "wait histogram"; "faults: 1 injected";
      "timelines:"; "[completed]" ]

let test_metrics_json_roundtrip () =
  let w, _, _ = rich_workload () in
  let m = Sched.Simulator.run (config ~alloc:Sched.Allocator.jigsaw ()) w in
  let fields = Obs.Json.parse_line (Sched.Metrics.to_json_string m) in
  Alcotest.(check string) "trace" "obs-test" (Obs.Json.str fields "trace");
  Alcotest.(check string) "sched" "Jigsaw" (Obs.Json.str fields "sched");
  Alcotest.(check int) "num_jobs" m.num_jobs (Obs.Json.int fields "num_jobs");
  Alcotest.(check (float 1e-12)) "avg_utilization" m.avg_utilization
    (Obs.Json.num fields "avg_utilization");
  Alcotest.(check int) "series_points" (Sched.Metrics.series_length m)
    (Obs.Json.int fields "series_points");
  Alcotest.(check int) "hist key per bucket" (Array.length m.inst_hist)
    (List.length
       (List.filter
          (fun (k, _) -> String.length k > 10 && String.sub k 0 10 = "inst_hist_")
          fields))

let test_fingerprint_sensitivity () =
  let w, _, _ = rich_workload () in
  let m = Sched.Simulator.run (config ~alloc:Sched.Allocator.jigsaw ()) w in
  let fp = Sched.Metrics.fingerprint m in
  Alcotest.(check string) "wall-clock excluded" fp
    (Sched.Metrics.fingerprint
       { m with sched_time_total = 1234.0; sched_time_per_job = 5.0 });
  Alcotest.(check bool) "simulated fields included" true
    (fp <> Sched.Metrics.fingerprint { m with num_jobs = m.num_jobs + 1 });
  Alcotest.(check bool) "series included" true
    (fp <> Sched.Metrics.fingerprint { m with series = [||] })

let test_series_csv () =
  let w, _, _ = rich_workload () in
  let m = Sched.Simulator.run (config ~alloc:Sched.Allocator.baseline ()) w in
  let path = Filename.temp_file "jigsaw-series" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Sched.Metrics.write_series_csv oc m);
      let lines = In_channel.with_open_text path In_channel.input_lines in
      Alcotest.(check int) "header + one row per point"
        (1 + Sched.Metrics.series_length m)
        (List.length lines);
      Alcotest.(check string) "header" "time,utilization" (List.hd lines);
      (* Full-precision round trip through the text form. *)
      List.iteri
        (fun i line ->
          if i > 0 then
            match String.split_on_char ',' line with
            | [ t; u ] ->
                let et, eu = Sched.Metrics.series_point m (i - 1) in
                Alcotest.(check (float 0.0)) "time" et (float_of_string t);
                Alcotest.(check (float 0.0)) "util" eu (float_of_string u)
            | _ -> Alcotest.failf "bad csv line %s" line)
        lines)

let test_null_sink_is_disabled () =
  Alcotest.(check bool) "null sink disabled" false Obs.Sink.null.enabled;
  let sink, events = Obs.Sink.memory () in
  Alcotest.(check bool) "memory sink enabled" true sink.enabled;
  Alcotest.(check int) "empty before emission" 0 (List.length (events ()));
  Alcotest.(check bool) "format by path" true
    (Obs.Sink.format_of_path "x/y.csv" = Obs.Sink.Csv
    && Obs.Sink.format_of_path "x/y.jsonl" = Obs.Sink.Jsonl
    && Obs.Sink.format_of_path "plain" = Obs.Sink.Jsonl)

let suite =
  [
    Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "csv round-trip" `Quick test_csv_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "trace deterministic" `Quick test_trace_deterministic;
    Alcotest.test_case "multi-victim kill order" `Quick
      test_multi_victim_kill_order;
    Alcotest.test_case "null sink changes nothing" `Quick
      test_null_sink_changes_nothing;
    Alcotest.test_case "null sink: all schemes under faults" `Quick
      test_null_sink_all_schemes_under_faults;
    Alcotest.test_case "file round-trip via reader" `Quick test_file_roundtrip;
    Alcotest.test_case "reader splits runs" `Quick test_reader_splits_runs;
    Alcotest.test_case "profile consistency" `Quick test_profile_consistency;
    Alcotest.test_case "analysis summary" `Quick test_analysis_summary;
    Alcotest.test_case "metrics json round-trip" `Quick
      test_metrics_json_roundtrip;
    Alcotest.test_case "fingerprint sensitivity" `Quick
      test_fingerprint_sensitivity;
    Alcotest.test_case "series csv" `Quick test_series_csv;
    Alcotest.test_case "sink basics" `Quick test_null_sink_is_disabled;
  ]

(* perfbench: the repository's benchmark.

     bench.exe --workload NAME --seed N [--fault-seed N] --seconds S
               --trace 0|1 [--tiny] [--daemon PATH]

   An iteration takes one sub-trace of the workload, generates it and
   starts the five schemes' simulations (set-up), runs them, then
   drives two daemon episodes with the same stream over the socket.  A
   pass is one iteration per sub-trace; passes repeat while the
   --seconds budget lasts (at least one), and what is left of it goes
   to further passes of daemon episodes.  With --trace 1 a run stops after any
   iteration once the budget is spent.

   Times are pooled over the whole run (total scheduling time over
   total jobs, mean seconds per sub-trace, total acks over total
   episode time, percentiles of every sample) rather than taken as
   medians over sub-traces: sub-traces differ in cost, so a median
   picks one sub-trace's single short timing window, while the pool
   averages both the inputs and the host's speed over the run.  Set-up
   is the median over iterations.

   With --trace 1 each iteration also runs the traced simulations and
   the in-process service replay, and the output carries the per-layer
   metrics (means per iteration) instead of the end-to-end ones.

   Human-readable context rows go to stdout first; the last line is one
   JSON object: {"correct", "attempted", "failed", "metrics"}. *)

open Util

let usage =
  "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--fault-seed N] \
   [--tiny] [--daemon PATH]"

type iteration = {
  sub : Workloads.sub;
  setup_s : float;
  runs : Simphase.run list;
  traced : (Simphase.run * Simphase.layers) list;
  eps : (Svcphase.episode * Svcphase.verdict) list;
  rp : Svcphase.replay option;  (** Replay of the first episode. *)
}

(* Daemon episodes per iteration: the second repeats the first's inputs,
   doubling the latency samples without adding input variance. *)
let episodes_per_iteration = 2

let metric_json (name, unit, v) =
  let v = if Float.is_finite v then v else 0.0 in
  Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit

let find_run s runs = List.find (fun (r : Simphase.run) -> r.scheme = s) runs
let sum_wall runs = List.fold_left (fun a (r : Simphase.run) -> a +. r.wall_s) 0.0 runs

let () =
  let workload = ref "" and seed = ref (-1) and fault_seed = ref (-1)
  and seconds = ref 0.0 and trace = ref (-1) and tiny = ref false
  and daemon = ref "_build/default/bin/jigsaw_daemon.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--fault-seed", Arg.Set_int fault_seed, "N fault seed (default: derived)");
      ("--seconds", Arg.Set_float seconds, "S measurement budget");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--tiny", Arg.Set tiny, " tiny inputs, one iteration (smoke test)");
      ("--daemon", Arg.Set_string daemon, "PATH jigsaw-daemon executable");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if
    (not (List.mem !workload Workloads.names))
    || !seed < 0 || !seconds <= 0.0
    || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    prerr_endline ("workloads: " ^ String.concat ", " Workloads.names);
    exit 2
  end;
  if not (Sys.file_exists !daemon) then begin
    Printf.eprintf "daemon executable %s not found\n" !daemon;
    exit 2
  end;
  let traced = !trace = 1 in
  let fault_seed =
    if !fault_seed >= 0 then !fault_seed else Workloads.default_fault_seed !seed
  in
  let w = Workloads.make ~name:!workload ~seed:!seed ~fault_seed ~tiny:!tiny in
  Printf.printf
    "workload %s seed %d fault_seed %d sub_traces %d jobs_per_sub %d radix %d \
     inputs %s\n%!"
    w.name w.seed w.fault_seed w.subs w.jobs w.radix (Workloads.input_digest w);
  (* A dead daemon must surface as an error reply or EOF, not a
     signal; on any exit, stop the daemon and remove scratch files. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit (fun () ->
      Svcphase.kill_daemon ();
      cleanup_scratch ());
  let dir = fresh_dir "sim" in
  (* First fingerprint of every (sub-trace, scheme): later runs of the
     same inputs, traced or not, must reproduce it. *)
  let reference = Hashtbl.create 64 in
  let attempted = ref 0 and failures = ref [] in
  let record ~ops fails =
    attempted := !attempted + ops;
    failures := List.rev_append fails !failures
  in
  let check_run (s : Workloads.sub) (r : Simphase.run) =
    let key = (s.index, r.scheme) in
    let fails = Simphase.check s ~reference:(Hashtbl.find_opt reference key) r in
    if not (Hashtbl.mem reference key) then
      Hashtbl.replace reference key (Sched.Metrics.fingerprint r.metrics);
    (* One operation per scheme run, failed if any check on it fails. *)
    record ~ops:1
      (match fails with
      | [] -> []
      | f :: _ -> [ Printf.sprintf "sub %d: %s" s.index f ])
  in
  let episode_s = ref 0.0 in
  let run_episode (sub : Workloads.sub) =
    let t0 = run_clock () in
    let ep = Svcphase.episode ~daemon:!daemon w sub in
    episode_s := run_clock () -. t0;
    let verdict = Svcphase.check w ep in
    record ~ops:(Array.length ep.items + 1)
      (List.map (Printf.sprintf "sub %d: %s" sub.index) verdict.fails);
    (ep, verdict)
  in
  let iteration k =
    let t0 = now_ns () in
    let sub = Workloads.sub w k in
    let sims = Simphase.start_all w sub in
    let sim_setup = elapsed_s t0 in
    let runs = List.map (fun (a, sim) -> Simphase.finish a sim) sims in
    List.iter (check_run sub) runs;
    let traced_runs =
      if not traced then []
      else
        List.map
          (fun alloc ->
            let r, l = Simphase.traced_run w sub ~dir alloc in
            check_run sub r;
            (r, l))
          Simphase.schemes
    in
    let eps = List.init episodes_per_iteration (fun _ -> run_episode sub) in
    let ep = fst (List.hd eps) in
    let rp =
      if not traced then None
      else begin
        let rp = Svcphase.replay w ep in
        record ~ops:1
          (if rp.replay_fp = ep.daemon_fp then []
           else
             [ Printf.sprintf "sub %d: svc: replay fingerprint %s <> daemon %s"
                 k rp.replay_fp ep.daemon_fp ]);
        Some rp
      end
    in
    let daemon_setup = median_l (List.map (fun (e, _) -> e.Svcphase.setup_s) eps) in
    { sub; setup_s = sim_setup +. daemon_setup; runs; traced = traced_runs; eps; rp }
  in
  let its = ref [] and extra = ref [] in
  let iterate k =
    let t0 = run_clock () in
    its := iteration k :: !its;
    run_clock () -. t0
  in
  if traced then begin
    let rec loop k =
      let took = iterate (k mod w.subs) in
      if (not !tiny) && run_clock () +. took <= !seconds then loop (k + 1)
    in
    loop 0
  end
  else begin
    let rec pass () =
      let t0 = run_clock () in
      for k = 0 to w.subs - 1 do ignore (iterate k) done;
      let took = run_clock () -. t0 in
      if (not !tiny) && run_clock () +. took <= !seconds then pass ()
    in
    pass ();
    (* Spend the rest of the budget on further passes of daemon
       episodes, one per sub-trace, so the daemon figures average the
       host's noise over the whole run while every sub-trace keeps an
       equal share of the samples. *)
    let rec more est =
      if (not !tiny) && run_clock () +. est <= !seconds then begin
        let t0 = run_clock () in
        for k = 0 to w.subs - 1 do
          extra := run_episode (Workloads.sub w k) :: !extra
        done;
        more (run_clock () -. t0)
      end
    in
    more (!episode_s *. float_of_int w.subs)
  end;
  rm_rf dir;
  let its = List.rev !its in
  let n_its = float_of_int (List.length its) in
  let covered = List.sort_uniq compare (List.map (fun it -> it.sub.index) its) in
  let mean f = List.fold_left (fun a it -> a +. f it) 0.0 its /. n_its in
  List.iter
    (fun k ->
      let it = List.find (fun it -> it.sub.index = k) its in
      List.iter (fun r -> print_endline (Simphase.context_row w it.sub r)) it.runs;
      let ep, v = List.hd it.eps in
      Printf.printf
        "context %s sub %d svc daemon_fingerprint=%s \
         whole_trace_offline_fingerprint=%s matches=%b gated=%b\n"
        w.name k ep.daemon_fp v.batch_fp (v.batch_fp = ep.daemon_fp)
        v.batch_gated)
    covered;
  let eps =
    List.concat_map (fun it -> List.map fst it.eps) its
    @ List.rev_map fst !extra
  in
  let pooled f = Array.concat (List.map f eps) in
  let submit_ms = pooled (fun e -> e.Svcphase.submit_ms)
  and read_ms = pooled (fun e -> e.Svcphase.read_ms) in
  let daemon_rss = List.fold_left (fun m e -> Float.max m e.Svcphase.rss_mb) 0.0 eps in
  Printf.printf
    "context %s svc closed-loop connections=%d window=%d episodes=%d \
     submit_samples=%d read_samples=%d daemon_rss_mb=%.1f\n"
    w.name (Svcphase.connections ()) Svcphase.window (List.length eps)
    (Array.length submit_ms) (Array.length read_ms) daemon_rss;
  Printf.printf "context %s iterations=%d sub_traces_covered=%d\n" w.name
    (List.length its) (List.length covered);
  List.iter (fun f -> print_endline ("FAILED " ^ f)) (List.rev !failures);
  (* The paper's Table-3 number over the whole run: total scheduling
     time over total jobs. *)
  let sched_ms s =
    let runs = List.map (fun it -> find_run s it.runs) its in
    1e3
    *. List.fold_left (fun a (r : Simphase.run) -> a +. r.metrics.sched_time_total) 0.0 runs
    /. float_of_int
         (List.fold_left (fun a (r : Simphase.run) -> a + r.metrics.num_jobs) 0 runs)
  in
  (* End-to-end figures as measured, each with how it scales with host
     speed: times multiply by the speed factor, rates divide. *)
  let scaled kind f v =
    match kind with `Time -> v *. f | `Rate -> v /. f | `Fixed -> v
  in
  let end_to_end =
    [
      ("setup_s", "s", `Time, median_l (List.map (fun it -> it.setup_s) its));
      ("sim_wall_s", "s", `Time, mean (fun it -> sum_wall it.runs));
      ("sched_ms_per_job.Jigsaw", "ms", `Time, sched_ms "Jigsaw");
      ("sched_ms_per_job.LCS", "ms", `Time, sched_ms "LCS");
      ("sched_ms_per_job.LaaS", "ms", `Time, sched_ms "LaaS");
      ( "util_pct.Jigsaw", "%", `Fixed,
        mean (fun it -> 100.0 *. (find_run "Jigsaw" it.runs).metrics.avg_utilization) );
      ("peak_rss_mb", "MiB", `Fixed, Float.max (peak_rss_mb 0) daemon_rss);
      ( "acked_per_s", "1/s", `Rate,
        List.fold_left (fun a e -> a +. float_of_int e.Svcphase.acked) 0.0 eps
        /. List.fold_left (fun a e -> a +. e.Svcphase.wall_s) 0.0 eps );
      ("submit_ack_ms_p50", "ms", `Time, quantile 0.5 submit_ms);
      ("submit_ack_ms_p99", "ms", `Time, quantile 0.99 submit_ms);
      ("read_ms_p99", "ms", `Time, quantile 0.99 read_ms);
    ]
  in
  let factor = speed_factor () in
  Printf.printf "context %s host speed_factor=%.4f calibration_samples=%d raw:%s\n"
    w.name factor (List.length !cal_samples)
    (String.concat ""
       (List.map (fun (n, _, _, v) -> Printf.sprintf " %s=%.6g" n v) end_to_end));
  let metrics =
    if not traced then
      List.map (fun (n, u, kind, v) -> (n, u, scaled kind factor v)) end_to_end
    else begin
      let per_scheme =
        List.concat_map
          (fun s ->
            List.map
              (fun (name, unit, f) ->
                ( Printf.sprintf "%s.%s" name s, unit,
                  mean (fun it ->
                      f (snd (List.find (fun ((r : Simphase.run), _) -> r.scheme = s)
                                it.traced))) ))
              Simphase.layer_fields)
          Simphase.labels
      in
      let rmean f = mean (fun it -> f (Option.get it.rp)) in
      let rpool f = Array.concat (List.map (fun it -> f (Option.get it.rp)) its) in
      per_scheme
      @ [
          ( "trace_overhead_pct", "%",
            mean (fun it -> 100.0 *. sum_wall (List.map fst it.traced) /. sum_wall it.runs) );
          ("svc.protocol.parse_ms", "ms", rmean (fun r -> r.parse_ms));
          ("svc.core.admit_ms", "ms", rmean (fun r -> r.admit_ms));
          ("svc.wal.append_ms", "ms", rmean (fun r -> r.append_ms));
          ("svc.wal.append_us_p99", "us", quantile 0.99 (rpool (fun r -> r.append_us)));
          ("svc.core.apply_ms", "ms", rmean (fun r -> r.apply_ms));
          ("svc.core.apply_us_p99", "us", quantile 0.99 (rpool (fun r -> r.apply_us)));
          ("svc.core.checkpoint_ms", "ms", rmean (fun r -> r.checkpoint_ms));
          ("svc.core.checkpoints", "count", rmean (fun r -> float_of_int r.checkpoints));
          ("svc.protocol.reply_ms", "ms", rmean (fun r -> r.reply_ms));
          ( "svc.daemon.unattributed_pct", "%",
            mean (fun it ->
                let r = Option.get it.rp and ep = fst (List.hd it.eps) in
                100.0 *. (ep.wall_s -. r.replay_wall_s) /. ep.wall_s) );
          ( "svc.daemon.shed", "count",
            float_of_int (List.fold_left (fun a e -> a + e.Svcphase.shed) 0 eps) );
          ( "svc.client.retries", "count",
            float_of_int (List.fold_left (fun a e -> a + e.Svcphase.retries) 0 eps) );
        ]
    end
  in
  let failed = List.length !failures in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) !attempted failed
    (String.concat ", " (List.map metric_json metrics))

(* Tests for the EASY-backfilling trace simulator, on hand-crafted
   micro-traces with known outcomes. *)

let radix = 8 (* 128 nodes *)

let job ?(arrival = 0.0) id size runtime =
  Trace.Job.v ~id ~size ~runtime ~arrival ()

let workload jobs =
  Trace.Workload.create ~name:"micro" ~system_nodes:128 (Array.of_list jobs)

let run ?(alloc = Sched.Allocator.baseline) ?scenario w =
  let cfg = Sched.Simulator.Config.make ~radix alloc in
  let cfg =
    match scenario with
    | None -> cfg
    | Some s -> Sched.Simulator.Config.with_scenario s cfg
  in
  Sched.Simulator.run_detailed cfg w

let find jobs id =
  List.find (fun (r : Sched.Metrics.per_job) -> r.job.id = id) jobs

let test_single_job () =
  let m, jobs = run (workload [ job 0 10 100.0 ]) in
  Alcotest.(check int) "one job ran" 1 m.num_jobs;
  let r = find jobs 0 in
  Alcotest.(check (float 1e-9)) "starts at arrival" 0.0 r.start_time;
  Alcotest.(check (float 1e-9)) "ends after runtime" 100.0 r.end_time;
  Alcotest.(check (float 1e-9)) "makespan" 100.0 m.makespan

let test_fifo_order_when_saturated () =
  (* Two 128-node jobs: strictly sequential. *)
  let m, jobs = run (workload [ job 0 128 50.0; job 1 128 50.0 ]) in
  let r0 = find jobs 0 and r1 = find jobs 1 in
  Alcotest.(check (float 1e-9)) "first at 0" 0.0 r0.start_time;
  Alcotest.(check (float 1e-9)) "second after first" 50.0 r1.start_time;
  Alcotest.(check (float 1e-9)) "makespan" 100.0 m.makespan

let test_parallel_when_fits () =
  let _, jobs = run (workload [ job 0 60 100.0; job 1 60 100.0 ]) in
  Alcotest.(check (float 1e-9)) "both at 0" 0.0 (find jobs 1).start_time

let test_backfill_small_job () =
  (* Head job 0 runs on the whole machine until t=100.  Job 1 (also
     whole-machine) must wait; job 2 is small and would end before job
     1's reservation, so EASY backfills it at t=0... except nothing is
     free.  Instead: job 0 takes 100 nodes, job 1 needs 100 (reserved at
     t=100), job 2 (20 nodes, short) backfills immediately. *)
  let w = workload [ job 0 100 100.0; job 1 100 100.0; job 2 20 50.0 ] in
  let _, jobs = run w in
  Alcotest.(check (float 1e-9)) "backfilled now" 0.0 (find jobs 2).start_time;
  Alcotest.(check (float 1e-9)) "head reservation kept" 100.0 (find jobs 1).start_time

let test_backfill_does_not_delay_head () =
  (* The head needs the whole machine, so its reservation covers every
     node; a long candidate that overlaps it (any candidate does) and
     overruns the reservation time must NOT backfill. *)
  let w = workload [ job 0 60 100.0; job 1 128 100.0; job 2 30 500.0 ] in
  let _, jobs = run w in
  Alcotest.(check (float 1e-9)) "head on time" 100.0 (find jobs 1).start_time;
  Alcotest.(check bool) "long job did not jump" true
    ((find jobs 2).start_time >= 100.0)

let test_backfill_disjoint_long_job () =
  (* A long backfill candidate IS allowed when it cannot touch the
     reservation: head needs 100 nodes, reservation at t=100 claims
     jobs 0's nodes; candidate needs 20 nodes and 28 are always free. *)
  let w = workload [ job 0 100 100.0; job 1 100 100.0; job 2 20 500.0 ] in
  let _, jobs = run ~alloc:Sched.Allocator.baseline w in
  (* With first-fit the reservation takes nodes 0..99 at t=100 — exactly
     the nodes of job 0 — so job 2's first-fit allocation (nodes
     100..119) is disjoint and may start at 0 under the disjointness
     rule.  Verify one of the two legal behaviours holds and the head is
     never delayed. *)
  let r2 = find jobs 2 in
  Alcotest.(check bool) "either now (disjoint) or after head" true
    (r2.start_time = 0.0 || r2.start_time >= 100.0);
  Alcotest.(check (float 1e-9)) "head exact" 100.0 (find jobs 1).start_time

let test_arrivals_respected () =
  let w = workload [ job 0 10 10.0; job ~arrival:1000.0 1 10 10.0 ] in
  let _, jobs = run w in
  Alcotest.(check (float 1e-9)) "no time travel" 1000.0 (find jobs 1).start_time

let test_rejected_oversized () =
  let m, _ = run (workload [ job 0 129 10.0; job 1 5 10.0 ]) in
  Alcotest.(check int) "rejected" 1 m.rejected;
  Alcotest.(check int) "other ran" 1 m.num_jobs

let test_scenario_applies_to_isolating_only () =
  let w = workload [ job 0 128 100.0 ] in
  let scenario = Trace.Scenario.Fixed 25 in
  let _, base_jobs = run ~alloc:Sched.Allocator.baseline ~scenario w in
  Alcotest.(check (float 1e-9)) "baseline full runtime" 100.0
    (find base_jobs 0).end_time;
  let _, jig_jobs = run ~alloc:Sched.Allocator.jigsaw ~scenario w in
  Alcotest.(check (float 1e-6)) "jigsaw sped up" (100.0 /. 1.25)
    (find jig_jobs 0).end_time

let test_utilization_simple () =
  (* Two equal jobs saturating half the machine, back to back at the
     head: steady window [0, 50] at 50% occupancy. *)
  let w = workload [ job 0 64 50.0; job 1 64 50.0; job 2 64 50.0 ] in
  let m, _ = run w in
  (* Jobs 0 and 1 run together (128 nodes), job 2 starts at 50.  Steady
     window = [0, 50], fully busy. *)
  Alcotest.(check (float 1e-6)) "utilization 1.0" 1.0 m.avg_utilization

let test_turnaround_accounting () =
  let w = workload [ job 0 128 100.0; job 1 128 100.0 ] in
  let m, _ = run w in
  (* Turnarounds: 100 and 200. *)
  Alcotest.(check (float 1e-6)) "avg tat" 150.0 m.avg_turnaround_all;
  Alcotest.(check int) "large jobs counted" 2 m.num_large;
  Alcotest.(check (float 1e-6)) "large tat same" 150.0 m.avg_turnaround_large

let test_isolating_run_has_no_claim_conflicts () =
  (* A denser random trace on each isolating scheduler: claims all
     succeed (the simulator would raise otherwise). *)
  let w =
    Trace.Synthetic.synth ~mean_size:10 ~n_jobs:300 ~seed:21 ~max_size:100
  in
  List.iter
    (fun alloc ->
      let m, _ = run ~alloc w in
      Alcotest.(check int) (alloc.Sched.Allocator.name ^ " all ran") 300 m.num_jobs)
    [ Sched.Allocator.jigsaw; Sched.Allocator.laas; Sched.Allocator.ta ]

let test_padding_visible_in_alloc_utilization () =
  (* 18 nodes via LaaS on radix 8 spans pods and pads to 20 held; a
     second job that cannot coexist stretches the steady window past
     zero so the utilization integrals are non-trivial. *)
  let w = workload [ job 0 18 100.0; job 1 120 50.0 ] in
  let m, _ = run ~alloc:Sched.Allocator.laas w in
  Alcotest.(check bool) "held > requested" true
    (m.alloc_utilization > m.avg_utilization)

let test_fifo_mode_blocks_strictly () =
  (* With backfilling disabled, a blocked head stops everything behind
     it, even trivially-placeable jobs. *)
  let w = workload [ job 0 100 100.0; job 1 100 100.0; job 2 5 10.0 ] in
  let cfg =
    Sched.Simulator.Config.with_backfill false
      (Sched.Simulator.Config.make ~radix Sched.Allocator.baseline)
  in
  let _, jobs = Sched.Simulator.run_detailed cfg w in
  Alcotest.(check (float 1e-9)) "small job waits behind head" 100.0
    (find jobs 2).start_time

let test_fifo_mode_rejects_oversized () =
  let w = workload [ job 0 129 10.0; job 1 5 10.0 ] in
  let cfg =
    Sched.Simulator.Config.with_backfill false
      (Sched.Simulator.Config.make ~radix Sched.Allocator.baseline)
  in
  let m, jobs = Sched.Simulator.run_detailed cfg w in
  Alcotest.(check int) "rejected" 1 m.rejected;
  Alcotest.(check (float 1e-9)) "queue unblocked" 0.0 (find jobs 1).start_time

let test_window_one_limits_backfill () =
  (* Window 1 looks at a single candidate: job 2 (long, conflicting) is
     the only one inspected, so job 3 (short) cannot jump even though
     EASY with a wider window would start it. *)
  let w =
    workload [ job 0 100 100.0; job 1 128 100.0; job 2 28 500.0; job 3 20 50.0 ]
  in
  let narrow =
    Sched.Simulator.Config.with_backfill_window 1
      (Sched.Simulator.Config.make ~radix Sched.Allocator.baseline)
  in
  let _, jobs = Sched.Simulator.run_detailed narrow w in
  Alcotest.(check bool) "short job not reached" true
    ((find jobs 3).start_time > 0.0);
  let wide =
    Sched.Simulator.Config.with_backfill_window 50
      (Sched.Simulator.Config.make ~radix Sched.Allocator.baseline)
  in
  let _, jobs = Sched.Simulator.run_detailed wide w in
  Alcotest.(check (float 1e-9)) "wide window backfills it" 0.0
    (find jobs 3).start_time

let test_midtrace_idle_counts_against_utilization () =
  (* A demand gap in the middle of an arrival trace is genuine low
     demand: the steady window spans it and utilization drops, unlike
     the excluded cold-start ramp and final drain. *)
  let w =
    workload
      [
        job 0 128 100.0;
        job ~arrival:10.0 1 128 100.0 (* blocks: steady start *);
        (* long idle gap: nothing arrives between 210 and 1000 *)
        job ~arrival:1000.0 2 128 100.0;
        job ~arrival:1000.0 3 128 100.0 (* blocks again; last start 1100 *);
      ]
  in
  let m, _ = run w in
  (* Window [10, 1100]: busy except [210, 1000). *)
  Alcotest.(check bool)
    (Printf.sprintf "gap visible (%.2f)" m.avg_utilization)
    true
    (m.avg_utilization < 0.5)

let test_estimates_gate_backfill () =
  (* Same layout as the backfill test, but the short candidate's
     ESTIMATE overruns the reservation: EASY must refuse it even though
     its actual runtime would fit. *)
  let est_job ?(arrival = 0.0) id size runtime est =
    Trace.Job.v ~id ~size ~runtime ~est_runtime:est ~arrival ()
  in
  let w =
    workload
      [ job 0 100 100.0; job 1 128 100.0; est_job 2 20 50.0 500.0 ]
  in
  let _, jobs = run w in
  Alcotest.(check bool) "over-estimated job held back" true
    ((find jobs 2).start_time >= 100.0);
  (* With an exact estimate it backfills (whole-machine head reserves at
     t=100; 50 <= 100). *)
  let w' = workload [ job 0 100 100.0; job 1 128 100.0; job 2 20 50.0 ] in
  let _, jobs' = run w' in
  Alcotest.(check (float 1e-9)) "exact estimate backfills" 0.0
    (find jobs' 2).start_time

let test_estimates_keep_reservations_conservative () =
  (* The running job's estimate is loose: the reservation lands at the
     ESTIMATED completion, but the head still starts at the ACTUAL one
     (completions retrigger scheduling). *)
  let est_job id size runtime est =
    Trace.Job.v ~id ~size ~runtime ~est_runtime:est ()
  in
  let w = workload [ est_job 0 128 100.0 1000.0; job 1 128 10.0 ] in
  let _, jobs = run w in
  Alcotest.(check (float 1e-9)) "head starts at actual completion" 100.0
    (find jobs 1).start_time

let test_series_exposed () =
  let w = workload [ job 0 64 10.0; job 1 128 10.0 ] in
  let m, _ = run w in
  Alcotest.(check bool) "series non-empty" true
    (Sched.Metrics.series_length m > 0);
  for i = 0 to Sched.Metrics.series_length m - 1 do
    let _, u = Sched.Metrics.series_point m i in
    Alcotest.(check bool) "fraction" true (u >= 0.0 && u <= 1.0)
  done

let suite =
  [
    Alcotest.test_case "single job" `Quick test_single_job;
    Alcotest.test_case "FIFO under saturation" `Quick test_fifo_order_when_saturated;
    Alcotest.test_case "parallel when fits" `Quick test_parallel_when_fits;
    Alcotest.test_case "EASY backfills short jobs" `Quick test_backfill_small_job;
    Alcotest.test_case "backfill never delays head" `Quick test_backfill_does_not_delay_head;
    Alcotest.test_case "disjoint long backfill" `Quick test_backfill_disjoint_long_job;
    Alcotest.test_case "arrivals respected" `Quick test_arrivals_respected;
    Alcotest.test_case "oversized jobs rejected" `Quick test_rejected_oversized;
    Alcotest.test_case "scenarios only speed isolating schemes" `Quick test_scenario_applies_to_isolating_only;
    Alcotest.test_case "utilization accounting" `Quick test_utilization_simple;
    Alcotest.test_case "turnaround accounting" `Quick test_turnaround_accounting;
    Alcotest.test_case "isolating runs claim-safe" `Slow test_isolating_run_has_no_claim_conflicts;
    Alcotest.test_case "padding visible" `Quick test_padding_visible_in_alloc_utilization;
    Alcotest.test_case "FIFO mode blocks strictly" `Quick test_fifo_mode_blocks_strictly;
    Alcotest.test_case "FIFO mode rejects oversized" `Quick test_fifo_mode_rejects_oversized;
    Alcotest.test_case "window=1 limits backfill" `Quick test_window_one_limits_backfill;
    Alcotest.test_case "utilization series exposed" `Quick test_series_exposed;
    Alcotest.test_case "mid-trace idle counts" `Quick test_midtrace_idle_counts_against_utilization;
    Alcotest.test_case "estimates gate backfill" `Quick test_estimates_gate_backfill;
    Alcotest.test_case "reservations use estimates, starts use actuals" `Quick
      test_estimates_keep_reservations_conservative;
  ]

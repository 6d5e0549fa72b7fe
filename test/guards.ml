(* Behavioural claim guards, run by `dune build @validate` (never by
   `dune runtest`: the net race alone is 60 cells of 1,500 jobs).

   Each case pins one claim of the reproduction on the Table 3 traces
   truncated to their first 1,500 jobs:
   - Jigsaw allocations routed over their own cables never interfere,
     and no routing's peak channel load undercuts the pigeonhole lower
     bound (the net race: 4 traces x 5 schemes x 3 routings);
   - moldable Jigsaw loses no utilization to rigid Jigsaw and stays
     interference-free while resizing;
   - shrink-in-place fault recovery loses strictly less node-time than
     kill + resubmit under the same simultaneous 3-node fault;
   - two wall-clock bounds: ring telemetry costs at most 1.5x the bare
     run, and dense-set [Bitset.iter_set] at most 1.15x the per-bit
     [mem] loop.  The rule runs with JIGSAW_VALIDATE=0 so claim
     validation does not distort them.

   Run one group with e.g. `dune exec test/guards.exe -- test molding`. *)

let entries =
  List.map
    (fun (e : Trace.Presets.entry) ->
      { e with workload = Trace.Workload.truncate e.workload 1_500 })
    [
      Trace.Presets.synth_16 ~full:false;
      Trace.Presets.sep_cab ~full:false;
      Trace.Presets.thunder ~full:false;
      Trace.Presets.synth_28 ~full:false;
    ]

(* All-to-all flows on the radix-16 trace; ring on the larger machines,
   where one 1000+-node job's all-to-all set is a million flows.  Ring
   exercises the same add/remove/index paths at O(k) flows per job. *)
let net_shape_for (e : Trace.Presets.entry) =
  if e.cluster_radix <= 16 then Routing.Telemetry.Alltoall
  else Routing.Telemetry.Ring

let run_cells cells =
  Sched.Sweep.run ~jobs:(Par.Pool.default_jobs ()) (Array.of_list cells)

let jigsaw_cfg ?net (e : Trace.Presets.entry) =
  Sched.Simulator.Config.make ?net ~radix:e.cluster_radix
    Sched.Allocator.jigsaw

(* ------------------------------------------------------------------ *)
(* Net race: every trace x scheme x routing policy, telemetry live.    *)
(* ------------------------------------------------------------------ *)

let net_rows =
  lazy
    (let combos =
       List.concat_map
         (fun (e : Trace.Presets.entry) ->
           List.concat_map
             (fun (a : Sched.Allocator.t) ->
               List.map
                 (fun p -> (e, a, p))
                 Routing.Telemetry.[ Dmodk; Greedy; Jigsaw ])
             Sched.Allocator.all)
         entries
     in
     let results =
       run_cells
         (List.map
            (fun ((e : Trace.Presets.entry), a, p) ->
              Sched.Sweep.cell
                (Sched.Simulator.Config.make ~net:(p, net_shape_for e)
                   ~radix:e.cluster_radix a)
                e.workload)
            combos)
     in
     List.mapi
       (fun i ((e : Trace.Presets.entry), (a : Sched.Allocator.t), p) ->
         (e.workload.name, a.name, p, Option.get results.(i).net))
       combos)

let test_jigsaw_interference_free () =
  List.iter
    (fun (trace, scheme, p, (s : Routing.Telemetry.summary)) ->
      if scheme = "Jigsaw" && p = Routing.Telemetry.Jigsaw then
        Alcotest.(check int)
          (Printf.sprintf "Jigsaw-on-jigsaw interfered flows on %s" trace)
          0 s.sm_peak_interfered)
    (Lazy.force net_rows)

let test_peak_above_lower_bound () =
  List.iter
    (fun (trace, scheme, p, (s : Routing.Telemetry.summary)) ->
      if s.sm_peak_max_load < s.sm_peak_lower_bound then
        Alcotest.failf "%s %s/%s: peak load %d under lower bound %d" trace
          scheme
          (Routing.Telemetry.policy_name p)
          s.sm_peak_max_load s.sm_peak_lower_bound)
    (Lazy.force net_rows)

(* ------------------------------------------------------------------ *)
(* Molding: moldable Jigsaw (every job in [pref/2, 2*pref]) vs rigid.  *)
(* ------------------------------------------------------------------ *)

(* Per trace: (rigid metrics, moldable result with telemetry live). *)
let molding_rows =
  lazy
    (let rigid =
       run_cells
         (List.map
            (fun (e : Trace.Presets.entry) ->
              Sched.Sweep.cell (jigsaw_cfg e) e.workload)
            entries)
     in
     let mold =
       run_cells
         (List.map
            (fun e ->
              Sched.Sweep.cell
                (jigsaw_cfg ~net:(Routing.Telemetry.Jigsaw, net_shape_for e) e)
                (Trace.Workload.moldable e.Trace.Presets.workload))
            entries)
     in
     List.mapi (fun i _ -> (rigid.(i).Sched.Sweep.metrics, mold.(i))) entries)

let test_moldable_utilization () =
  List.iter
    (fun ((rigid : Sched.Metrics.t), (r : Sched.Sweep.result)) ->
      let mold = r.metrics in
      if mold.avg_utilization +. 1e-9 < rigid.avg_utilization then
        Alcotest.failf "Jigsaw moldable utilization %.4f under rigid %.4f on %s"
          mold.avg_utilization rigid.avg_utilization mold.trace_name)
    (Lazy.force molding_rows)

let test_moldable_interference_free () =
  List.iter
    (fun (_, (r : Sched.Sweep.result)) ->
      Alcotest.(check int)
        (Printf.sprintf "interfered flows on moldable %s"
           r.metrics.trace_name)
        0 (Option.get r.net).sm_peak_interfered)
    (Lazy.force molding_rows)

(* All three node faults land at the same mid-run instant, while the two
   runs' states are still identical: both policies face the same
   victims with the same elapsed work, so the comparison is pure
   recovery policy.  Staggered faults would diverge the schedules and
   compare different accidents. *)
let test_shrink_beats_kill () =
  let e = List.hd entries in
  let rigid, _ = List.hd (Lazy.force molding_rows) in
  let faults =
    Trace.Faults.scripted
      (List.map
         (fun node ->
           {
             Trace.Faults.time = 0.5 *. rigid.Sched.Metrics.makespan;
             kind = Trace.Faults.Fail;
             target = Trace.Faults.Node node;
           })
         [ 3; 501; 900 ])
  in
  let lost shrink =
    let resilience =
      {
        Sched.Simulator.requeue = true;
        resubmit_delay = 30.0;
        max_retries = 2;
        charge_lost_work = true;
        shrink;
      }
    in
    (Sched.Simulator.run
       (Sched.Simulator.Config.make ~faults ~resilience ~radix:e.cluster_radix
          Sched.Allocator.jigsaw)
       (Trace.Workload.moldable e.workload))
      .lost_node_time
  in
  let shrunk = lost true and killed = lost false in
  if shrunk >= killed then
    Alcotest.failf "in-place shrink lost %.0f node-s, kill + resubmit %.0f"
      shrunk killed

(* ------------------------------------------------------------------ *)
(* Wall-clock bounds.                                                  *)
(* ------------------------------------------------------------------ *)

(* A busy radix-24 machine (no Table 3 preset uses that radix): the same
   Jigsaw cell with telemetry off, then with ring flows routed. *)
let test_ring_telemetry_overhead () =
  let w24 =
    Trace.Synthetic.synth ~mean_size:24 ~n_jobs:1_500 ~seed:2401
      ~max_size:3456
  in
  let wall ?net () =
    (Sched.Sweep.run_cell
       (Sched.Sweep.cell
          (Sched.Simulator.Config.make ?net ~radix:24 Sched.Allocator.jigsaw)
          w24))
      .wall_s
  in
  let off = wall () in
  let on_ = wall ~net:(Routing.Telemetry.Jigsaw, Routing.Telemetry.Ring) () in
  let ratio = if off > 0.0 then on_ /. off else 0.0 in
  Printf.printf "ring telemetry: %.2fs on / %.2fs off (%.2fx)\n" on_ off ratio;
  if ratio > 1.5 then
    Alcotest.failf "ring telemetry %.2fx the bare run (bound 1.5x)" ratio

(* Word-skipping iteration must not lose to the per-bit membership loop
   even at 98% density, where the word walk degenerates to a bit loop;
   ns per full 4096-bit pass, with a small tolerance for a busy host. *)
let test_dense_iter_set () =
  let n = 4096 in
  let b = Sim.Bitset.create n in
  let prng = Sim.Prng.create ~seed:42 in
  for i = 0 to n - 1 do
    if Sim.Prng.float prng ~bound:1.0 < 0.98 then Sim.Bitset.add b i
  done;
  let sink = ref 0 in
  let timed f =
    for _ = 1 to 50 do f () done;
    let iters = 2_000 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do f () done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  let mem_ns =
    timed (fun () ->
        sink := 0;
        for i = 0 to n - 1 do
          if Sim.Bitset.mem b i then sink := !sink + i
        done)
  in
  let iter_ns =
    timed (fun () ->
        sink := 0;
        Sim.Bitset.iter_set b ~f:(fun i -> sink := !sink + i))
  in
  Printf.printf "dense98%%: mem loop %.1f ns, iter_set %.1f ns per pass\n"
    mem_ns iter_ns;
  if iter_ns > mem_ns *. 1.15 then
    Alcotest.failf "iter_set %.1f ns vs mem loop %.1f ns per pass" iter_ns
      mem_ns

(* The wall-clock cases run first, before any worker domain exists. *)
let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "guards"
    [
      ( "wall-clock",
        [
          case "dense98% iter_set <= 1.15x mem loop" test_dense_iter_set;
          case "ring telemetry <= 1.5x bare run" test_ring_telemetry_overhead;
        ] );
      ( "net",
        [
          case "Jigsaw-on-jigsaw interference-free"
            test_jigsaw_interference_free;
          case "peak load >= lower bound" test_peak_above_lower_bound;
        ] );
      ( "molding",
        [
          case "moldable utilization >= rigid" test_moldable_utilization;
          case "moldable Jigsaw interference-free"
            test_moldable_interference_free;
          case "shrink loses less than kill" test_shrink_beats_kill;
        ] );
    ]

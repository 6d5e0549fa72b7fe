(* Reproduction harness for every table and figure of the paper's
   evaluation (Smith & Lowenthal, HPDC'21), plus a Bechamel micro-suite
   for allocator latency.

   Usage:   dune exec bench/main.exe [-- table1 fig6 table2 fig7 fig8 table3 micro ablation]
   Default (no args): everything, in paper order.
   REPRO_FULL=1 switches to paper-scale traces (much slower).

   See DESIGN.md section 5 for the experiment index and EXPERIMENTS.md
   for recorded paper-vs-measured results. *)

let full = match Sys.getenv_opt "REPRO_FULL" with Some "1" -> true | _ -> false

let section title =
  Format.printf "@.=== %s ===@.@." title

(* ------------------------------------------------------------------ *)
(* Shared simulation cache: fig6, table2 and table3 reuse runs.        *)
(* ------------------------------------------------------------------ *)

(* BENCH_JOBS=N shards each target's simulations over N domains via
   [Sched.Sweep] before the serial print loop (0: the machine's
   recommended count).  Default is 1 — fully serial — because parallel
   cells contend for memory bandwidth and would inflate the wall-clock
   [sched_time_*] numbers some targets report. *)
let bench_jobs =
  match Sys.getenv_opt "BENCH_JOBS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt s with
      | Some 0 -> Par.Pool.default_jobs ()
      | Some n when n > 0 -> n
      | _ -> 1)

let cache : (string * string * string, Sched.Metrics.t) Hashtbl.t =
  Hashtbl.create 64

let sim_key (entry : Trace.Presets.entry) (alloc : Sched.Allocator.t) scenario =
  ( Printf.sprintf "%s#%d" entry.workload.Trace.Workload.name
      (Trace.Workload.num_jobs entry.workload),
    alloc.Sched.Allocator.name,
    Trace.Scenario.name scenario )

let run_sim ?(scenario = Trace.Scenario.No_speedup) (entry : Trace.Presets.entry)
    (alloc : Sched.Allocator.t) =
  let key = sim_key entry alloc scenario in
  match Hashtbl.find_opt cache key with
  | Some m -> m
  | None ->
      let cfg =
        Sched.Simulator.Config.make ~scenario ~radix:entry.cluster_radix alloc
      in
      let m = Sched.Simulator.run cfg entry.workload in
      Hashtbl.replace cache key m;
      m

(* Fill the cache for a target's (entry, alloc, scenario) triples in
   parallel; the target's serial loop then prints pure cache hits.  The
   sweep cells replicate [run_sim]'s config exactly, and results merge
   in submission order, so the cached metrics are byte-identical to the
   serial path whatever BENCH_JOBS is. *)
let prewarm triples =
  if bench_jobs > 1 then begin
    let seen = Hashtbl.create 32 in
    let missing =
      List.filter
        (fun (e, a, scen) ->
          let key = sim_key e a scen in
          let fresh =
            (not (Hashtbl.mem cache key)) && not (Hashtbl.mem seen key)
          in
          if fresh then Hashtbl.replace seen key ();
          fresh)
        triples
    in
    let cells =
      List.map
        (fun ((e : Trace.Presets.entry), a, scen) ->
          Sched.Sweep.cell
            (Sched.Simulator.Config.make ~scenario:scen ~radix:e.cluster_radix a)
            e.workload)
        missing
      |> Array.of_list
    in
    let results = Sched.Sweep.run ~jobs:bench_jobs cells in
    List.iteri
      (fun i (e, a, scen) ->
        Hashtbl.replace cache (sim_key e a scen)
          results.(i).Sched.Sweep.metrics)
      missing
  end

let no_speedup = Trace.Scenario.No_speedup

(* ------------------------------------------------------------------ *)
(* Table 1: characteristics of the job queue traces.                   *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: Characteristics of job queue traces";
  Format.printf "%a@." Trace.Workload.pp_summary_header ();
  List.iter
    (fun (e : Trace.Presets.entry) ->
      Format.printf "%a@." Trace.Workload.pp_summary
        (Trace.Workload.summarize e.workload))
    (Trace.Presets.all ~full);
  if not full then
    Format.printf
      "@.(scaled-down job counts and runtime tails; REPRO_FULL=1 for Table 1 scale)@."

(* ------------------------------------------------------------------ *)
(* Figure 6: average system utilization, 5 schemes x 9 traces.         *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  section "Figure 6: Average system utilization (%) per scheme and trace";
  let schemes = Sched.Allocator.all in
  prewarm
    (List.concat_map
       (fun e -> List.map (fun a -> (e, a, no_speedup)) schemes)
       (Trace.Presets.figure6_order ~full));
  Format.printf "%-10s" "Trace";
  List.iter (fun (a : Sched.Allocator.t) -> Format.printf " %9s" a.name) schemes;
  Format.printf "@.";
  List.iter
    (fun (e : Trace.Presets.entry) ->
      Format.printf "%-10s" e.workload.name;
      List.iter
        (fun a ->
          let m = run_sim e a in
          Format.printf " %8.1f%%" (100.0 *. m.avg_utilization))
        schemes;
      Format.printf "@.")
    (Trace.Presets.figure6_order ~full);
  Format.printf
    "@.(expect: Baseline 97-100; LC+S >= Jigsaw; Jigsaw ~95-96; LaaS ~90-93; TA ~85-88;@.";
  Format.printf " Atlas worst for all schemes due to whole-machine requests)@."

(* ------------------------------------------------------------------ *)
(* Table 2: frequency of instantaneous utilization ranges (Thunder).   *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: Instantaneous utilization frequency on Thunder";
  let e = Trace.Presets.thunder ~full in
  prewarm
    (List.map (fun a -> (e, a, no_speedup)) Sched.Allocator.isolating);
  Format.printf "%-8s %8s %8s %8s %8s %8s %8s@." "Approach" ">=98" "95-97"
    "90-95" "80-90" "60-80" "<=60";
  List.iter
    (fun (a : Sched.Allocator.t) ->
      let m = run_sim e a in
      (* inst_hist is lowest-bucket-first; the paper prints high to low. *)
      let h = m.inst_hist in
      Format.printf "%-8s %8d %8d %8d %8d %8d %8d@." a.name h.(5) h.(4) h.(3)
        h.(2) h.(1) h.(0))
    Sched.Allocator.isolating

(* ------------------------------------------------------------------ *)
(* Figures 7 and 8: scenario sweeps.                                   *)
(* ------------------------------------------------------------------ *)

let scenario_schemes =
  [
    Sched.Allocator.ta;
    Sched.Allocator.laas;
    Sched.Allocator.jigsaw;
    Sched.Allocator.lcs ();
  ]

(* Scenario sweeps rerun every (trace, scheme, scenario) triple; to keep
   the default suite in the minutes range they use truncated traces.
   Normalization is against Baseline on the same truncated trace, so the
   comparison stays internally consistent. *)
let sweep_entry ?(cap = 2_500) (e : Trace.Presets.entry) =
  if full then e
  else { e with workload = Trace.Workload.truncate e.workload cap }

(* Everything a scenario-sweep figure touches: Baseline once per entry
   plus every (scheme, scenario) pair. *)
let scenario_triples entries =
  List.concat_map
    (fun e ->
      (e, Sched.Allocator.baseline, no_speedup)
      :: List.concat_map
           (fun scen -> List.map (fun a -> (e, a, scen)) scenario_schemes)
           Trace.Scenario.all)
    entries

let fig7 () =
  section
    "Figure 7: Average job turnaround time normalized to Baseline (all jobs / jobs > 100 nodes)";
  prewarm
    (scenario_triples
       [ sweep_entry (Trace.Presets.aug_cab ~full);
         sweep_entry (Trace.Presets.oct_cab ~full) ]);
  List.iter
    (fun (e : Trace.Presets.entry) ->
      Format.printf "--- %s ---@." e.workload.name;
      let base = run_sim e Sched.Allocator.baseline in
      Format.printf "%-8s" "Scenario";
      List.iter
        (fun (a : Sched.Allocator.t) -> Format.printf " %15s" a.name)
        scenario_schemes;
      Format.printf "@.";
      List.iter
        (fun scen ->
          Format.printf "%-8s" (Trace.Scenario.name scen);
          List.iter
            (fun a ->
              let m = run_sim ~scenario:scen e a in
              let norm_all = m.avg_turnaround_all /. base.avg_turnaround_all in
              let norm_lg =
                if base.avg_turnaround_large > 0.0 then
                  m.avg_turnaround_large /. base.avg_turnaround_large
                else 0.0
              in
              Format.printf "     %4.2f /%4.2f" norm_all norm_lg)
            scenario_schemes;
          Format.printf "@.")
        Trace.Scenario.all)
    [ sweep_entry (Trace.Presets.aug_cab ~full);
      sweep_entry (Trace.Presets.oct_cab ~full) ];
  Format.printf
    "@.(expect: Jigsaw < 1.0 for Aug-Cab in speed-up scenarios; TA worst; LaaS between)@."

let fig8 () =
  section "Figure 8: Makespan normalized to Baseline";
  prewarm
    (scenario_triples
       [ sweep_entry ~cap:2_000 (Trace.Presets.thunder ~full);
         sweep_entry ~cap:1_500 (Trace.Presets.atlas ~full) ]);
  List.iter
    (fun (e : Trace.Presets.entry) ->
      Format.printf "--- %s ---@." e.workload.name;
      let base = run_sim e Sched.Allocator.baseline in
      Format.printf "%-8s" "Scenario";
      List.iter
        (fun (a : Sched.Allocator.t) -> Format.printf " %8s" a.name)
        scenario_schemes;
      Format.printf "@.";
      List.iter
        (fun scen ->
          Format.printf "%-8s" (Trace.Scenario.name scen);
          List.iter
            (fun a ->
              let m = run_sim ~scenario:scen e a in
              Format.printf " %8.3f" (m.makespan /. base.makespan))
            scenario_schemes;
          Format.printf "@.")
        Trace.Scenario.all)
    [ sweep_entry ~cap:2_000 (Trace.Presets.thunder ~full);
      sweep_entry ~cap:1_500 (Trace.Presets.atlas ~full) ];
  Format.printf
    "@.(expect: Jigsaw <= ~1.06 with no speed-ups and <= Baseline with them, beating LaaS and TA)@."

(* ------------------------------------------------------------------ *)
(* Table 3: average scheduling time per job.                           *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section "Table 3: Average scheduling time per job (seconds)";
  let entries =
    [
      Trace.Presets.synth_16 ~full;
      Trace.Presets.sep_cab ~full;
      Trace.Presets.thunder ~full;
      Trace.Presets.synth_28 ~full;
    ]
  in
  prewarm
    (List.concat_map
       (fun e -> List.map (fun a -> (e, a, no_speedup)) scenario_schemes)
       entries);
  Format.printf "%-8s" "";
  List.iter
    (fun (e : Trace.Presets.entry) -> Format.printf " %10s" e.workload.name)
    entries;
  Format.printf "@.";
  List.iter
    (fun (a : Sched.Allocator.t) ->
      Format.printf "%-8s" a.name;
      List.iter
        (fun e ->
          let m = run_sim e a in
          Format.printf " %10.5f" m.sched_time_per_job)
        entries;
      Format.printf "@.")
    scenario_schemes;
  Format.printf
    "@.(expect: TA/LaaS/Jigsaw within the same order of magnitude, milliseconds;@.";
  Format.printf " LC+S notably slower, growing with cluster size)@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one allocation on a half-loaded cluster. *)
(* ------------------------------------------------------------------ *)

let load_cluster ~radix ~seed ~target =
  (* Fill a cluster to roughly [target] utilization with Jigsaw jobs. *)
  let topo = Fattree.Topology.of_radix radix in
  let st = Fattree.State.create topo in
  let prng = Sim.Prng.create ~seed in
  let continue = ref true in
  let id = ref 0 in
  while !continue && Fattree.State.node_utilization st < target do
    let size =
      max 1
        (min
           (Fattree.Topology.num_nodes topo / 8)
           (int_of_float (Sim.Prng.exponential prng ~mean:16.0)))
    in
    (match Jigsaw_core.Jigsaw.get_allocation st ~job:!id ~size with
    | Some p ->
        Fattree.State.claim_exn st
          (Jigsaw_core.Partition.to_alloc topo p ~bw:1.0)
    | None -> continue := false);
    incr id
  done;
  st

(* Every leaf loses 1-4 nodes (no cables), so no leaf is fully free and
   no pod has more than [m2 * (m1 - 1)] free nodes, while most of the
   machine stays free. *)
let fragmented_cluster ~radix =
  let topo = Fattree.Topology.of_radix radix in
  let st = Fattree.State.create topo in
  for leaf = 0 to Fattree.Topology.num_leaves topo - 1 do
    let first = Fattree.Topology.leaf_first_node topo leaf in
    Fattree.State.claim_exn st
      (Fattree.Alloc.nodes_only ~job:(-1 - leaf) ~size:(1 + (leaf mod 4))
         (Array.init (1 + (leaf mod 4)) (fun k -> first + k)))
  done;
  st

let micro () =
  section "Bechamel micro-benchmarks (radix-24 cluster, ~80% loaded)";
  let open Bechamel in
  let st = load_cluster ~radix:24 ~seed:77 ~target:0.8 in
  (* One group per job class: leaf-scale, pod-scale and machine-scale
     requests hit different search paths (Algorithm 1's two- vs
     three-level branches). *)
  let alloc_group (label, size) =
    let job = Trace.Job.v ~id:999_999 ~size ~runtime:100.0 () in
    Test.make_grouped ~name:(Printf.sprintf "alloc-%s-%d" label size)
      (List.map
         (fun (a : Sched.Allocator.t) ->
           Test.make ~name:a.name
             (Staged.stage (fun () -> ignore (a.try_alloc st job))))
         Sched.Allocator.all)
  in
  (* No-fit probes on the fragmented cluster: a 120-node job exceeds
     every pod's free nodes (single-pod shapes all miss) and a 400-node
     one needs fully-free leaves (three-level shapes all miss), though
     thousands of nodes are free.  These time the misses that the
     per-pod row precheck and the three-level guard cut short. *)
  let nofit_group size =
    let st = fragmented_cluster ~radix:24 in
    let job = Trace.Job.v ~id:999_998 ~size ~runtime:100.0 () in
    Test.make_grouped ~name:(Printf.sprintf "nofit-fragmented-%d" size)
      (List.map
         (fun (a : Sched.Allocator.t) ->
           if a.try_alloc st job <> None then
             failwith (Printf.sprintf "micro: %s places the no-fit job" a.name);
           Test.make ~name:a.name
             (Staged.stage (fun () -> ignore (a.try_alloc st job))))
         [ Sched.Allocator.jigsaw; Sched.Allocator.laas ])
  in
  (* Routing micro-benches: constructing a full-bandwidth routing for a
     permutation over a partition, and compiling forwarding tables. *)
  let routing_group =
    let topo = Fattree.State.topo st in
    let fresh = Fattree.State.create topo in
    let p =
      match Jigsaw_core.Jigsaw.get_allocation fresh ~job:1 ~size:120 with
      | Some p -> p
      | None -> assert false
    in
    let n = Jigsaw_core.Partition.node_count p in
    let perm = Routing.Rearrange.demo_permutation ~n ~shift:(n / 3) in
    Test.make_grouped ~name:"routing-120-nodes"
      [
        Test.make ~name:"rearrange-permutation"
          (Staged.stage (fun () ->
               ignore (Routing.Rearrange.route_permutation topo p ~perm)));
        Test.make ~name:"compile-fwd-tables"
          (Staged.stage (fun () -> ignore (Routing.Fwd.compile topo p)));
      ]
  in
  (* The Bitset satellite: word-skipping iteration vs the per-bit
     membership loop it replaced in the backfill/fault hot paths. *)
  let bitset_group =
    let n = 4096 in
    let mk density =
      let b = Sim.Bitset.create n in
      let prng = Sim.Prng.create ~seed:42 in
      for i = 0 to n - 1 do
        if Sim.Prng.float prng ~bound:1.0 < density then Sim.Bitset.add b i
      done;
      b
    in
    let sink = ref 0 in
    let mem_loop b () =
      sink := 0;
      for i = 0 to n - 1 do
        if Sim.Bitset.mem b i then sink := !sink + i
      done
    in
    let iter_set b () =
      sink := 0;
      Sim.Bitset.iter_set b ~f:(fun i -> sink := !sink + i)
    in
    Test.make_grouped ~name:"bitset-iter-4096"
      (List.concat_map
         (fun (label, density) ->
           let b = mk density in
           [
             Test.make
               ~name:(Printf.sprintf "mem-loop-%s" label)
               (Staged.stage (mem_loop b));
             Test.make
               ~name:(Printf.sprintf "iter_set-%s" label)
               (Staged.stage (iter_set b));
           ])
         [ ("sparse2%", 0.02); ("half", 0.5); ("dense98%", 0.98) ])
  in
  let groups =
    List.map alloc_group [ ("leaf", 6); ("pod", 40); ("multi-pod", 200) ]
    @ List.map nofit_group [ 120; 400 ]
    @ [ routing_group; bitset_group ]
  in
  let benchmark tests =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    let raw_results = Benchmark.all cfg instances tests in
    List.map (fun i -> Analyze.all ols i raw_results) instances
  in
  List.iter
    (fun group ->
      let results = benchmark group in
      let rows = ref [] in
      List.iter
        (fun tbl ->
          Hashtbl.iter
            (fun name ols ->
              let ns =
                match Analyze.OLS.estimates ols with
                | Some (t :: _) -> t
                | _ -> Float.nan
              in
              rows := (name, ns) :: !rows)
            tbl)
        results;
      List.iter
        (fun (name, ns) -> Format.printf "%-40s %14.1f ns/run@." name ns)
        (List.sort compare !rows);
      Format.printf "@.")
    groups

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out.                  *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation A: Jigsaw's full-leaf restriction vs. least-constrained placement";
  (* Paper section 4: permitting every legal placement scatters partial
     leaves across the machine and *lowers* utilization.  Compare Jigsaw
     against the exclusive least-constrained scheduler. *)
  Format.printf "%-10s %10s %10s %10s@." "Trace" "Jigsaw" "LC(excl.)" "LaaS";
  List.iter
    (fun (e : Trace.Presets.entry) ->
      let e = sweep_entry ~cap:2_000 e in
      let j = run_sim e Sched.Allocator.jigsaw in
      let lc = run_sim e (Sched.Allocator.lc_exclusive ()) in
      let la = run_sim e Sched.Allocator.laas in
      Format.printf "%-10s %9.1f%% %9.1f%% %9.1f%%@." e.workload.name
        (100.0 *. j.avg_utilization)
        (100.0 *. lc.avg_utilization)
        (100.0 *. la.avg_utilization))
    [ Trace.Presets.synth_16 ~full; Trace.Presets.thunder ~full ];
  Format.printf
    "@.(expect: unrestricted LC at or below Jigsaw — permissiveness causes external@.";
  Format.printf " fragmentation — while both beat LaaS's padding)@.";

  section "Ablation B: EASY backfilling window (Jigsaw on Synth-16)";
  let e = sweep_entry ~cap:2_000 (Trace.Presets.synth_16 ~full) in
  Format.printf "%-10s %12s %14s@." "Window" "Utilization" "Avg turnaround";
  List.iter
    (fun window ->
      let cfg =
        Sched.Simulator.Config.make ~backfill_window:(max window 1)
          ~backfill:(window > 0) ~radix:e.cluster_radix Sched.Allocator.jigsaw
      in
      let m = Sched.Simulator.run cfg e.workload in
      Format.printf "%-10s %11.1f%% %14.0f@."
        (if window = 0 then "FIFO" else string_of_int window)
        (100.0 *. m.avg_utilization)
        m.avg_turnaround_all)
    [ 0; 1; 10; 50; 200 ];
  Format.printf
    "@.(expect: FIFO wastes the machine while big jobs drain; utilization grows@.";
  Format.printf " with the window and saturates around the paper's 50)@.";

  section "Ablation C: runtime-estimate accuracy (Jigsaw on Synth-16)";
  (* The paper's traces carry no usable estimates, so its simulator (and
     our default) plans with exact runtimes.  Real users over-request
     wall time; inflated estimates make EASY more conservative. *)
  Format.printf "%-10s %12s %14s@." "Estimate" "Utilization" "Avg turnaround";
  List.iter
    (fun factor ->
      let w = Trace.Workload.inflate_estimates e.workload factor in
      let cfg =
        Sched.Simulator.Config.make ~radix:e.cluster_radix Sched.Allocator.jigsaw
      in
      let m = Sched.Simulator.run cfg w in
      Format.printf "%-10s %11.1f%% %14.0f@."
        (Printf.sprintf "%.0fx" factor)
        (100.0 *. m.avg_utilization)
        m.avg_turnaround_all)
    [ 1.0; 2.0; 5.0; 10.0 ];
  Format.printf
    "@.(expect: utilization robust — the head still starts at actual completions —@.";
  Format.printf " while backfilling gets slightly more conservative)@."

(* ------------------------------------------------------------------ *)

let all_targets =
  [
    ("table1", table1);
    ("fig6", fig6);
    ("table2", table2);
    ("fig7", fig7);
    ("fig8", fig8);
    ("table3", table3);
    ("micro", micro);
    ("ablation", ablation);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let chosen = if args = [] then List.map fst all_targets else args in
  Format.printf "Jigsaw reproduction benchmarks (%s scale)@."
    (if full then "paper (REPRO_FULL=1)" else "scaled-down default");
  List.iter
    (fun name ->
      match List.assoc_opt name all_targets with
      | Some f ->
          let t0 = Unix.gettimeofday () in
          f ();
          Format.printf "[%s took %.1fs]@." name (Unix.gettimeofday () -. t0)
      | None ->
          Format.eprintf "unknown target %s (expected: %s)@." name
            (String.concat " " (List.map fst all_targets));
          exit 1)
    chosen

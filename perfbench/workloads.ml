(* The benchmark's workloads.  A workload is [subs] seeded job streams
   ("sub-traces") plus the machine and configuration they run under;
   every iteration feeds one sub-trace to the offline simulator (all
   five schemes) and, as socket requests, to a Jigsaw daemon.

   Why several sub-traces: one stream's scheduling cost per job swings
   by about 20% from seed to seed (queue depth and reservation shapes
   depend on the drawn sizes), so a run pools [subs] independent
   streams derived from its seed.  Sub-trace 0 uses the seed itself, so
   seed 1601 reproduces the head of the Synth-16 preset. *)

type sub = {
  index : int;
  stream : Trace.Workload.t;  (** What the simulator runs. *)
  faults : Trace.Faults.t;
  daemon_stream : Trace.Workload.t;
      (** What the daemon is sent: the same jobs, always with arrival
          stamps (see [sub]). *)
}

type t = {
  name : string;
  seed : int;
  fault_seed : int;
  radix : int;
  subs : int;
  resilience : Sched.Simulator.resilience;
  net : (Routing.Telemetry.policy * Routing.Telemetry.shape) option;
  svc_faults : bool;
      (** Send the fault script to the daemon as fail/repair ops. *)
  jobs : int;  (** Jobs per sub-trace. *)
}

let names = [ "synth-batch"; "svc-mixed" ]

(* The fault seed is derived from the workload seed unless given. *)
let default_fault_seed seed = (seed * 7919) + 17

let sub_seed base k = base + (k * 1_000_003)

let requeue3 =
  {
    Sched.Simulator.requeue = true;
    resubmit_delay = 0.0;
    max_retries = 3;
    charge_lost_work = false;
    shrink = false;
  }

(* What jigsaw-daemon builds from its default flags. *)
let daemon_resilience =
  { Sched.Simulator.no_resilience with charge_lost_work = false }

let make ~name ~seed ~fault_seed ~tiny =
  let subs full = if tiny then 1 else full in
  match name with
  | "synth-batch" ->
      {
        name;
        seed;
        fault_seed;
        radix = 16;
        subs = subs 9;
        resilience = daemon_resilience;
        net = None;
        svc_faults = false;
        jobs = (if tiny then 40 else 400);
      }
  | "svc-mixed" ->
      {
        name;
        seed;
        fault_seed;
        radix = 16;
        subs = subs 12;
        resilience = requeue3;
        net = Some (Routing.Telemetry.Jigsaw, Routing.Telemetry.Ring);
        svc_faults = true;
        jobs = (if tiny then 60 else 480);
      }
  | other ->
      invalid_arg
        (Printf.sprintf "unknown workload %S (one of: %s)" other
           (String.concat ", " names))

(* Poisson arrivals at a target offered load (requested node-seconds
   per node-second of capacity), the way the Cab-like generator stamps
   its traces, over the given job set. *)
let poisson_arrivals ~seed ~load ~nodes (w : Trace.Workload.t) =
  let prng = Sim.Prng.create ~seed in
  let mean_work =
    Trace.Workload.total_node_seconds w /. float_of_int (Array.length w.jobs)
  in
  let rate = load *. float_of_int nodes /. mean_work in
  let clock = ref 0.0 in
  let jobs =
    Array.map
      (fun (j : Trace.Job.t) ->
        clock := !clock +. Sim.Prng.exponential prng ~mean:(1.0 /. rate);
        { j with arrival = !clock })
      w.jobs
  in
  Trace.Workload.create ~name:w.name ~system_nodes:nodes jobs

(* The same failure-generation horizon as jigsaw-sim's --mtbf: last
   arrival plus twice the longest runtime request. *)
let horizon (w : Trace.Workload.t) =
  let jobs = w.jobs in
  let last = if jobs = [||] then 0.0 else jobs.(Array.length jobs - 1).arrival in
  let max_est =
    Array.fold_left (fun m (j : Trace.Job.t) -> Float.max m j.est_runtime) 0.0 jobs
  in
  last +. (2.0 *. max_est)

(* Sub-trace [k]: Synth-16-family jobs (exponential sizes, mean 16;
   runtimes uniform on 20-3000 s), stamped with Poisson arrivals at
   offered load 1.0.  synth-batch simulates them all at t=0 instead;
   svc-mixed adds node failures (MTBF 2e6 s, MTTR 2e4 s per node).

   The daemon always gets the stamped stream.  Fed a whole batch at
   t=0, each submit's pass scans a queue that grows with the episode,
   and on a shared VM those episodes' throughput and p99 spread by 30
   to 50% between identical runs, beyond any usable bound. *)
let sub t k =
  let seed = sub_seed t.seed k in
  let nodes = Fattree.Topology.num_nodes (Fattree.Topology.of_radix t.radix) in
  let jobs = Trace.Synthetic.synth ~mean_size:16 ~n_jobs:t.jobs ~seed ~max_size:nodes in
  let stamped = poisson_arrivals ~seed:(seed + 1) ~load:1.0 ~nodes jobs in
  match t.name with
  | "svc-mixed" ->
      let faults =
        Trace.Faults.generate ~nodes:true ~cables:false ~switches:false
          ~seed:(sub_seed t.fault_seed k) ~mtbf:2e6 ~mttr:2e4
          ~horizon:(horizon stamped)
          (Fattree.Topology.of_radix t.radix)
      in
      { index = k; stream = stamped; faults; daemon_stream = stamped }
  | _ ->
      {
        index = k;
        stream = jobs;
        faults = Trace.Faults.none;
        daemon_stream = stamped;
      }

(* Digest of the generated inputs, so a smoke test can show that the
   seeds (and only the seeds) determine them. *)
let input_digest t =
  let b = Buffer.create 65536 in
  for k = 0 to t.subs - 1 do
    let s = sub t k in
    Array.iter
      (fun (j : Trace.Job.t) ->
        Printf.bprintf b "%d %d %h %h %h %h\n" j.id j.size j.runtime
          j.est_runtime j.arrival j.bw_class)
      (Array.append s.stream.jobs s.daemon_stream.jobs);
    Array.iter
      (fun (e : Trace.Faults.event) ->
        Printf.bprintf b "%h %s %s %d\n" e.time
          (match e.kind with Trace.Faults.Fail -> "fail" | Repair -> "repair")
          (Trace.Faults.target_name e.target)
          (Trace.Faults.target_id e.target))
      (Trace.Faults.events s.faults)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

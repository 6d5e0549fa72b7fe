open Fattree

(* What happens to a job whose partition loses a resource to a fault:
   the attempt is killed (its work is lost) and the job is either
   resubmitted after [resubmit_delay] — at most [max_retries] times —
   or abandoned.  With [shrink] set, a moldable job that only lost
   nodes (no cables) and can still meet its minimum size is resized in
   place instead — no work is lost and no kill is counted. *)
type resilience = {
  requeue : bool;
  resubmit_delay : float;
  max_retries : int;
  charge_lost_work : bool;
      (* true: every killed attempt's node-seconds count as lost work;
         false: only abandoning kills are charged. *)
  shrink : bool;
}

let no_resilience =
  {
    requeue = false;
    resubmit_delay = 0.0;
    max_retries = 0;
    charge_lost_work = true;
    shrink = false;
  }

type config = {
  allocator : Allocator.t;
  radix : int;
  scenario : Trace.Scenario.t;
  scenario_seed : int;
  backfill_window : int;
  backfill : bool;
  faults : Trace.Faults.t;
  resilience : resilience;
  sink : Obs.Sink.t;
  prof : Obs.Prof.t option;
  net : (Routing.Telemetry.policy * Routing.Telemetry.shape) option;
}

module Config = struct
  type t = config

  let make ?(scenario = Trace.Scenario.No_speedup) ?(scenario_seed = 1)
      ?(backfill_window = 50) ?(backfill = true) ?(faults = Trace.Faults.none)
      ?(resilience = no_resilience) ?(sink = Obs.Sink.null) ?prof ?net ~radix
      allocator =
    {
      allocator;
      radix;
      scenario;
      scenario_seed;
      backfill_window;
      backfill;
      faults;
      resilience;
      sink;
      prof;
      net;
    }

  let with_scenario scenario cfg = { cfg with scenario }
  let with_backfill_window backfill_window cfg = { cfg with backfill_window }
  let with_backfill backfill cfg = { cfg with backfill }
  let with_sink sink cfg = { cfg with sink }
  let with_prof prof cfg = { cfg with prof }
end

(* The serializable configuration identity: what a checkpoint header or
   a WAL segment header must carry to rebuild a [config].  The record
   sits in its own [Record] module so [Svc.Core] can re-export it, labels
   included, with a plain [include]. *)
module Params = struct
  module Record = struct
    type params = {
      scheme : string;
      radix : int;
      scenario : string;
      scenario_seed : int;
      backfill_window : int;
      backfill : bool;
      resilience : resilience;
      trace_name : string;
      system_nodes : int;
    }
  end

  include Record

  type t = params

  let of_config (cfg : config) (w : Trace.Workload.t) =
    {
      scheme = cfg.allocator.Allocator.name;
      radix = cfg.radix;
      scenario = Trace.Scenario.name cfg.scenario;
      scenario_seed = cfg.scenario_seed;
      backfill_window = cfg.backfill_window;
      backfill = cfg.backfill;
      resilience = cfg.resilience;
      trace_name = w.name;
      system_nodes = w.system_nodes;
    }

  let num_i i = Obs.Json.Num (float_of_int i)
  let num_b b = Obs.Json.Num (if b then 1.0 else 0.0)

  let to_fields p =
    [
      ("scheme", Obs.Json.Str p.scheme);
      ("radix", num_i p.radix);
      ("scenario", Obs.Json.Str p.scenario);
      ("scenario_seed", num_i p.scenario_seed);
      ("backfill_window", num_i p.backfill_window);
      ("backfill", num_b p.backfill);
      ("requeue", num_b p.resilience.requeue);
      ("resubmit_delay", Obs.Json.Num p.resilience.resubmit_delay);
      ("max_retries", num_i p.resilience.max_retries);
      ("charge_lost_work", num_b p.resilience.charge_lost_work);
    ]
    @ (if p.resilience.shrink then [ ("shrink", num_b true) ] else [])
    @ [
        ("trace_name", Obs.Json.Str p.trace_name);
        ("system_nodes", num_i p.system_nodes);
      ]

  let of_fields fields =
    let int = Obs.Json.int fields and flag k = Obs.Json.int fields k <> 0 in
    try
      Ok
        {
          scheme = Obs.Json.str fields "scheme";
          radix = int "radix";
          scenario = Obs.Json.str fields "scenario";
          scenario_seed = int "scenario_seed";
          backfill_window = int "backfill_window";
          backfill = flag "backfill";
          resilience =
            {
              requeue = flag "requeue";
              resubmit_delay = Obs.Json.num fields "resubmit_delay";
              max_retries = int "max_retries";
              charge_lost_work = flag "charge_lost_work";
              (* Absent in configs written before molding existed. *)
              shrink = Obs.Json.mem fields "shrink" && flag "shrink";
            };
          trace_name = Obs.Json.str fields "trace_name";
          system_nodes = int "system_nodes";
        }
    with Obs.Json.Parse_error m -> Error ("bad config fields: " ^ m)

  let to_config ?faults ?sink ?prof ?net p =
    match (Allocator.by_name p.scheme, Trace.Scenario.of_name p.scenario) with
    | Error m, _ | _, Error m -> Error m
    | Ok _, Ok _ when p.system_nodes < 0 ->
        Error "system_nodes must be non-negative"
    | Ok allocator, Ok scenario ->
        Ok
          (Config.make ~scenario ~scenario_seed:p.scenario_seed
             ~backfill_window:p.backfill_window ~backfill:p.backfill ?faults
             ~resilience:p.resilience ?sink ?prof ?net ~radix:p.radix allocator)
end

(* The run's scalar accumulators, declared once: [sim] holds the live
   record, a snapshot holds a copy, and the checkpoint [acc] row is
   written and read through [fields]. *)
module Acc = struct
  type t = {
    mutable sched_clock : float;  (* wall time spent deciding *)
    mutable alloc_busy : int;
    mutable req_busy : int;
    mutable last_start_time : float;
    mutable first_start_time : float;
    mutable first_blocked_time : float;
    mutable rejected : int;
    mutable pending_repairs : int;  (* repair events not yet applied *)
    mutable fault_events : int;
    mutable interrupted : int;
    mutable requeued : int;
    mutable abandoned : int;
    mutable lost_node_time : float;
    mutable shrunk : int;  (* fault recoveries by in-place shrink *)
    mutable grown : int;  (* idle-capacity grows of moldable jobs *)
    mutable started_total : int;  (* jobs started, for Pass_end deltas *)
    mutable cancelled : int;  (* pending jobs withdrawn before starting *)
  }

  let create () =
    {
      sched_clock = 0.0;
      alloc_busy = 0;
      req_busy = 0;
      last_start_time = 0.0;
      first_start_time = -1.0;
      first_blocked_time = -1.0;
      rejected = 0;
      pending_repairs = 0;
      fault_events = 0;
      interrupted = 0;
      requeued = 0;
      abandoned = 0;
      lost_node_time = 0.0;
      shrunk = 0;
      grown = 0;
      started_total = 0;
      cancelled = 0;
    }

  let copy a = { a with sched_clock = a.sched_clock }

  (* One entry per accumulator: its checkpoint key, reader and writer.
     [zero_if_absent] marks counters newer than the oldest readable
     checkpoint; an absent key keeps [create]'s 0.  Every other key is
     required. *)
  type field = {
    key : string;
    get : t -> Obs.Json.value;
    set : t -> (string * Obs.Json.value) list -> unit;
    zero_if_absent : bool;
  }

  let int ?(zero_if_absent = false) key get set =
    {
      key;
      zero_if_absent;
      get = (fun a -> Obs.Json.Num (float_of_int (get a)));
      set = (fun a row -> set a (Obs.Json.int row key));
    }

  let float key get set =
    {
      key;
      zero_if_absent = false;
      get = (fun a -> Obs.Json.Num (get a));
      set = (fun a row -> set a (Obs.Json.num row key));
    }

  let fields =
    [
      float "sched_clock" (fun a -> a.sched_clock) (fun a v -> a.sched_clock <- v);
      int "alloc_busy" (fun a -> a.alloc_busy) (fun a v -> a.alloc_busy <- v);
      int "req_busy" (fun a -> a.req_busy) (fun a v -> a.req_busy <- v);
      float "last_start"
        (fun a -> a.last_start_time)
        (fun a v -> a.last_start_time <- v);
      float "first_start"
        (fun a -> a.first_start_time)
        (fun a v -> a.first_start_time <- v);
      float "first_blocked"
        (fun a -> a.first_blocked_time)
        (fun a v -> a.first_blocked_time <- v);
      int "rejected" (fun a -> a.rejected) (fun a v -> a.rejected <- v);
      int "pending_repairs"
        (fun a -> a.pending_repairs)
        (fun a v -> a.pending_repairs <- v);
      int "fault_count" (fun a -> a.fault_events) (fun a v -> a.fault_events <- v);
      int "interrupted" (fun a -> a.interrupted) (fun a v -> a.interrupted <- v);
      int "requeued" (fun a -> a.requeued) (fun a v -> a.requeued <- v);
      int "abandoned" (fun a -> a.abandoned) (fun a v -> a.abandoned <- v);
      float "lost_node_time"
        (fun a -> a.lost_node_time)
        (fun a v -> a.lost_node_time <- v);
      (* Absent in version-1 files: molding did not exist. *)
      int ~zero_if_absent:true "shrunk" (fun a -> a.shrunk) (fun a v -> a.shrunk <- v);
      int ~zero_if_absent:true "grown" (fun a -> a.grown) (fun a v -> a.grown <- v);
      int "started_total"
        (fun a -> a.started_total)
        (fun a v -> a.started_total <- v);
      (* Absent in pre-daemon files: no cancellations. *)
      int ~zero_if_absent:true "cancelled"
        (fun a -> a.cancelled)
        (fun a v -> a.cancelled <- v);
    ]

  let to_fields a = List.map (fun f -> (f.key, f.get a)) fields

  let of_fields row =
    let a = create () in
    List.iter
      (fun f ->
        if not (f.zero_if_absent && not (Obs.Json.mem row f.key)) then
          f.set a row)
      fields;
    a
end

type running = {
  r_job : Trace.Job.t;
  r_alloc : Alloc.t; (* [r_alloc.size] is the granted size *)
  r_start : float;
  r_end : float; (* actual completion *)
  r_est_end : float; (* what the scheduler believes: start + user estimate *)
  r_attempt : int; (* 0 for the first run, +1 per requeue *)
  r_epoch : int; (* +1 per in-place resize of this attempt *)
}

type sim = {
  cfg : config;
  workload : Trace.Workload.t;
  st : State.t;
  engine : Sim.Engine.t;
  (* FIFO pending queue with lazy deletion: ids in arrival order plus a
     live-job table.  Each queue entry is stamped with a per-job
     enqueue generation; the entry is live only while [pending_gen]
     still maps the id to that stamp.  Requeues (fault resilience) make
     this necessary: a job started by backfill leaves a stale id in the
     queue, and when the job re-arrives the stale entry must not come
     back to life at its old position — only the back-of-queue entry
     with the fresh stamp is live. *)
  pending_ids : (int * int) Queue.t;
  pending : (int, Trace.Job.t) Hashtbl.t;
  pending_gen : (int, int) Hashtbl.t; (* id -> live enqueue generation *)
  running : (int, running) Hashtbl.t;
  (* No-fit memo: job classes (size, bw demand) whose probe against the
     live state returned a definitive [No_fit].  Claims only remove
     resources, so an entry stays valid until the next release; the memo
     is invalidated wholesale when [State.release_generation] moves.
     [Gave_up] verdicts (budget cut-offs) are never recorded. *)
  nofit : (int * float, unit) Hashtbl.t;
  mutable nofit_release_gen : int;
  mutable pass_scheduled : bool;
  acc : Acc.t;
  (* step function samples: (time, allocated_busy, requested_busy,
     pending_count, failed_nodes) recorded at every change *)
  mutable samples : (float * int * int * int * int) list;
  mutable finished : Metrics.per_job list;
  kills : (int, int) Hashtbl.t; (* job id -> attempts killed so far *)
  mutable reserved : (int * float) option; (* live head reservation *)
  (* Reservation scratch arena: one lazily-created state reused by every
     reservation probe, refreshed from [st] by an allocation-free
     [State.copy_into] instead of a clone per probe. *)
  mutable scratch : State.t option;
  (* Online front-end (daemon) state: every job the simulation knows,
     plus jobs and fault events accepted after [start] (newest first).
     Snapshots append the dynamic lists to the static workload/trace so
     a restore sees one merged history. *)
  jobs_by_id : (int, Trace.Job.t) Hashtbl.t;
  mutable dyn_jobs : Trace.Job.t list;
  mutable dyn_faults : Trace.Faults.event list;
  (* Network telemetry (cfg.net): live congestion index over the running
     jobs' routed flows.  Pure observer — it never feeds back into
     scheduling or metrics, so telemetry-off runs are bit-identical. *)
  net : Routing.Telemetry.t option;
}

let record sim =
  sim.samples <-
    ( Sim.Engine.now sim.engine,
      sim.acc.alloc_busy,
      sim.acc.req_busy,
      Hashtbl.length sim.pending,
      Fattree.State.failed_node_count sim.st )
    :: sim.samples

(* The base runtime (and the scenario speedup draw) is always computed
   at the job's nominal size, then scaled work-conservingly by the
   granted size — so a moldable job's behaviour is a deterministic
   function of (job, granted), not of the molding history. *)
let job_runtime sim (j : Trace.Job.t) ~granted =
  let base =
    if sim.cfg.allocator.isolating then
      Trace.Scenario.isolated_runtime sim.cfg.scenario
        ~seed:sim.cfg.scenario_seed j
    else j.runtime
  in
  Trace.Job.scale_runtime j ~granted base

(* What the scheduler plans with: the user's wall-time request.  It never
   shrinks with the isolation scenario (users do not re-estimate), so all
   reservation and backfill decisions stay conservative — but it does
   stretch with a smaller grant, or the estimate would undershoot. *)
let job_estimate (j : Trace.Job.t) ~granted =
  Trace.Job.scale_runtime j ~granted j.est_runtime

let timed sim f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  sim.acc.sched_clock <- sim.acc.sched_clock +. (Unix.gettimeofday () -. t0);
  r

(* Emit one trace event.  The payload is a thunk so disabled tracing
   costs one flag test and no allocation; when profiling, the live
   gauges are sampled at every event regardless of the sink.  Events
   carry simulated time and logical payloads only — nothing wall-clock —
   so the stream is a pure function of (workload, scheme, seeds), and
   emission never touches simulator state, so traced and untraced runs
   produce bit-identical metrics. *)
let emit sim mk_payload =
  (match sim.cfg.prof with
  | Some p ->
      Obs.Prof.sample p "gauge/queue_depth"
        (float_of_int (Hashtbl.length sim.pending));
      Obs.Prof.sample p "gauge/free_nodes"
        (float_of_int (State.total_free_nodes sim.st));
      Obs.Prof.sample p "gauge/healthy_nodes"
        (float_of_int (State.healthy_node_count sim.st))
  | None -> ());
  if sim.cfg.sink.Obs.Sink.enabled then
    Obs.Sink.emit sim.cfg.sink
      { Obs.Event.time = Sim.Engine.now sim.engine; payload = mk_payload () }

let prof_incr sim name =
  match sim.cfg.prof with Some p -> Obs.Prof.incr p name | None -> ()

(* Telemetry hooks.  Each job transition (un)installs the job's flow set
   and emits a [Net_route] plus a cluster-wide [Net_congestion_sample].
   The (re)route runs under a profiling span so the per-event
   maintenance cost shows up as a tail, not just a mean. *)
let net_sample_event sim net =
  emit sim (fun () ->
      let s = Routing.Telemetry.sample net in
      Obs.Event.Net_congestion_sample
        {
          max_load = s.Routing.Telemetry.s_max_load;
          shared = s.s_shared;
          interfered = s.s_interfered;
          total_flows = s.s_total_flows;
          lower_bound = s.s_lower_bound;
        })

let net_install sim (alloc : Alloc.t) =
  match sim.net with
  | None -> ()
  | Some net ->
      let now = Sim.Engine.now sim.engine in
      let add () = Routing.Telemetry.add_job net ~now alloc in
      let info =
        match sim.cfg.prof with
        | Some p -> Obs.Prof.time p "net/route" add
        | None -> add ()
      in
      emit sim (fun () ->
          Obs.Event.Net_route
            {
              job = alloc.Alloc.job;
              retract = false;
              flows = info.Routing.Telemetry.ri_flows;
              channels = info.ri_channels;
              interfered = info.ri_interfered;
            });
      net_sample_event sim net

let net_retract sim job =
  match sim.net with
  | None -> ()
  | Some net ->
      let now = Sim.Engine.now sim.engine in
      let remove () = Routing.Telemetry.remove_job net ~now job in
      let info =
        match sim.cfg.prof with
        | Some p -> Obs.Prof.time p "net/retract" remove
        | None -> remove ()
      in
      emit sim (fun () ->
          Obs.Event.Net_route
            {
              job;
              retract = true;
              flows = info.Routing.Telemetry.ri_flows;
              channels = info.ri_channels;
              interfered = info.ri_interfered;
            });
      net_sample_event sim net

(* Earliest estimated completion time at which [job] could be placed,
   with the allocation it would get then.  [running] pairs each live
   allocation with its estimated end time; [None] means the job cannot
   be placed even on the fully drained machine.

   Completions sharing an estimated end free resources together, so they
   form one candidate instant.  Feasibility after releasing groups 0..k
   is monotone in k (releases only add resources); a single working
   scratch state therefore walks the groups forward, releasing each
   group incrementally and probing once per instant, and the first
   success is the earliest.

   [scratch ()] returns a reusable probe state refreshed to mirror [st]
   — a [State.copy_into] into a per-sim arena, so the whole search
   allocates nothing per probe where it used to pay a [State.clone]
   each: the probe state's arrays are bit-identical to a fresh clone's
   (same blit), so verdicts and fingerprints are unchanged. *)
let reservation (alloc : Allocator.t) ~scratch ~running ~job =
  (* Size-negotiating probe with failure provenance collapsed: for rigid
     jobs this is exactly [try_alloc], so pre-molding reservations are
     unchanged; a moldable head reserves the largest grant its
     [min_size, pref] range admits at each candidate instant. *)
  let try_sized st j =
    match alloc.Allocator.probe_sized st j with
    | Allocator.Sized { alloc = a; _ } -> Some a
    | Allocator.Sized_no_fit | Allocator.Sized_gave_up -> None
  in
  let completions =
    List.sort (fun (a, _) (b, _) -> compare a b) running |> Array.of_list
  in
  (* Group completions sharing an estimated end: freed together. *)
  let groups =
    let acc = ref [] in
    Array.iter
      (fun (t, a) ->
        match !acc with
        | (t', rs) :: rest when t' = t -> acc := (t, a :: rs) :: rest
        | _ -> acc := (t, [ a ]) :: !acc)
      completions;
    Array.of_list (List.rev !acc)
  in
  let g = Array.length groups in
  if g = 0 then None
  else if alloc.budgeted then begin
    (* A failing LC/LC+S probe can burn its whole search budget, so
       minimize the number of probes: binary search over drained
       prefixes (feasibility is monotone in released groups), paying a
       clone + prefix rebuild per probe instead. *)
    let attempt k =
      let probe = scratch () in
      for i = 0 to k do
        List.iter (fun a -> State.release probe a) (snd groups.(i))
      done;
      try_sized probe job
    in
    match attempt (g - 1) with
    | None -> None
    | Some last_alloc ->
        let lo = ref 0 and hi = ref (g - 1) in
        let best = ref last_alloc in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          match attempt mid with
          | Some a ->
              best := a;
              hi := mid
          | None -> lo := mid + 1
        done;
        Some (fst groups.(!hi), !best)
  end
  else begin
    (* Cheap definitive probes: the scratch state walks the completion
       groups forward, releasing each incrementally — one refresh total
       instead of one per probe. *)
    let probe = scratch () in
    let rec walk k =
      if k >= g then None
      else begin
        List.iter (fun a -> State.release probe a) (snd groups.(k));
        match try_sized probe job with
        | Some a -> Some (fst groups.(k), a)
        | None -> walk (k + 1)
      end
    in
    walk 0
  end

(* Probe the live state through the no-fit memo: a job class that
   definitively failed is not re-searched until something is released.
   Only used against [sim.st] — reservation probes run on clones whose
   resources differ, so they bypass the memo entirely. *)
let probe_memo sim (j : Trace.Job.t) =
  let rg = State.release_generation sim.st in
  if rg <> sim.nofit_release_gen then begin
    Hashtbl.reset sim.nofit;
    sim.nofit_release_gen <- rg
  end;
  (* The sized probe's only definitive failure is infeasibility at the
     job's minimum size, so that is the memo key — for rigid jobs it
     equals [j.size] and the memo behaves exactly as before. *)
  let key = (Trace.Job.min_size j, j.bw_class) in
  if Hashtbl.mem sim.nofit key then (Obs.Event.Memo_hit, None)
  else
    match sim.cfg.allocator.probe_sized sim.st j with
    | Allocator.Sized { alloc = a; granted = _ } -> (Obs.Event.Fit, Some a)
    | Allocator.Sized_no_fit ->
        Hashtbl.replace sim.nofit key ();
        (Obs.Event.Infeasible, None)
    | Allocator.Sized_gave_up -> (Obs.Event.Exhausted, None)

(* The instrumented probe: the memoized search runs under both clocks
   (the metric's [sched_clock] inside, the profiling span outside, so
   profiling overhead never pollutes [sched_time_per_job]), then the
   outcome goes to the trace as an [Attempt] and to the probe counters. *)
let probe_job sim ~ctx (j : Trace.Job.t) =
  let search () = timed sim (fun () -> probe_memo sim j) in
  let outcome, alloc =
    match sim.cfg.prof with
    | Some p ->
        let span =
          match ctx with
          | Obs.Event.Head -> "sched/head_probe"
          | Obs.Event.Backfill -> "sched/backfill_probe"
        in
        let r = Obs.Prof.time p span search in
        Obs.Prof.incr p
          (match fst r with
          | Obs.Event.Fit -> "probe/fit"
          | Obs.Event.Infeasible -> "probe/infeasible"
          | Obs.Event.Exhausted -> "probe/exhausted"
          | Obs.Event.Memo_hit -> "probe/memo_hit");
        r
    | None -> search ()
  in
  emit sim (fun () ->
      let nodes, leaf_cables, l2_cables =
        match alloc with
        | Some (a : Alloc.t) ->
            ( Array.length a.nodes,
              Array.length a.leaf_cables,
              Array.length a.l2_cables )
        | None -> (0, 0, 0)
      in
      Obs.Event.Attempt { job = j.id; ctx; outcome; nodes; leaf_cables; l2_cables });
  alloc

(* Start a job now: claim its allocation and schedule its completion.
   The allocation came from a pure probe against this same state, so the
   expensive claim validation is skipped (JIGSAW_VALIDATE=1 re-enables
   it; the test suite covers the checked path). *)
let rec start_job sim ~ctx (j : Trace.Job.t) (alloc : Alloc.t) =
  State.claim_exn ~validate:false sim.st alloc;
  let now = Sim.Engine.now sim.engine in
  (* [alloc.size] is the granted size — the sized probe may have molded
     the job below its nominal request.  For rigid jobs it equals
     [j.size], so everything below reduces to the pre-molding code. *)
  let granted = alloc.Alloc.size in
  let dur = job_runtime sim j ~granted in
  let r_end = now +. dur in
  let est_end = now +. job_estimate j ~granted in
  let attempt = Option.value (Hashtbl.find_opt sim.kills j.id) ~default:0 in
  Hashtbl.replace sim.running j.id
    { r_job = j; r_alloc = alloc; r_start = now; r_end;
      r_est_end = est_end; r_attempt = attempt; r_epoch = 0 };
  sim.acc.alloc_busy <- sim.acc.alloc_busy + Array.length alloc.nodes;
  sim.acc.req_busy <- sim.acc.req_busy + granted;
  sim.acc.last_start_time <- now;
  sim.acc.started_total <- sim.acc.started_total + 1;
  if sim.acc.first_start_time < 0.0 then sim.acc.first_start_time <- now;
  (match sim.reserved with
  | Some (id, _) when id = j.id ->
      sim.reserved <- None;
      emit sim (fun () -> Obs.Event.Reservation_clear { job = j.id })
  | _ -> ());
  prof_incr sim
    (match ctx with
    | Obs.Event.Head -> "sched/starts"
    | Obs.Event.Backfill -> "sched/backfill_starts");
  emit sim (fun () ->
      Obs.Event.Start
        {
          job = j.id;
          ctx;
          nodes = Array.length alloc.nodes;
          leaf_cables = Array.length alloc.leaf_cables;
          l2_cables = Array.length alloc.l2_cables;
          est_end;
          attempt;
        });
  net_install sim alloc;
  (* The attempt number guards against a stale completion: a killed and
     requeued job must not be finished by its first attempt's event.
     Likewise the epoch (suffixed only when non-zero, so pre-resize tags
     are byte-identical): a resized attempt must not be finished by its
     pre-resize completion event. *)
  Sim.Engine.schedule sim.engine ~time:r_end ~priority:0
    ~tag:(Printf.sprintf "c:%d:%d" j.id attempt)
    (fun _ -> complete_job sim j.id ~attempt ~epoch:0);
  record sim

and complete_job sim id ~attempt ~epoch =
  match Hashtbl.find_opt sim.running id with
  | None -> ()
  | Some r when r.r_attempt <> attempt || r.r_epoch <> epoch -> ()
  | Some r ->
      Hashtbl.remove sim.running id;
      State.release sim.st r.r_alloc;
      sim.acc.alloc_busy <- sim.acc.alloc_busy - Array.length r.r_alloc.nodes;
      sim.acc.req_busy <- sim.acc.req_busy - r.r_alloc.Alloc.size;
      sim.finished <-
        { Metrics.job = r.r_job; start_time = r.r_start; end_time = r.r_end }
        :: sim.finished;
      emit sim (fun () ->
          Obs.Event.Complete
            {
              job = id;
              started = r.r_start;
              waited = r.r_start -. r.r_job.arrival;
            });
      net_retract sim id;
      record sim;
      request_pass sim

(* Swap a running job's allocation for a replacement at a new granted
   size (the two-step release/claim the resize verdicts are specified
   against), compressing the remaining work onto the new node count:
   remaining node-seconds are conserved, so the time left scales by
   [old/new].  The epoch bump strands the superseded completion event —
   its guard in [complete_job] drops it — and a fresh one is scheduled
   under the epoch-suffixed tag, which checkpoints serialize like any
   other pending event. *)
and swap_alloc sim (r : running) (new_alloc : Alloc.t) =
  let now = Sim.Engine.now sim.engine in
  State.release sim.st r.r_alloc;
  State.claim_exn ~validate:false sim.st new_alloc;
  sim.acc.alloc_busy <-
    sim.acc.alloc_busy - Array.length r.r_alloc.nodes + Array.length new_alloc.nodes;
  sim.acc.req_busy <- sim.acc.req_busy - r.r_alloc.Alloc.size + new_alloc.Alloc.size;
  let scale t =
    now
    +. (t -. now)
       *. float_of_int r.r_alloc.Alloc.size
       /. float_of_int new_alloc.Alloc.size
  in
  let r' =
    {
      r with
      r_alloc = new_alloc;
      r_end = scale r.r_end;
      r_est_end = scale r.r_est_end;
      r_epoch = r.r_epoch + 1;
    }
  in
  Hashtbl.replace sim.running r.r_job.id r';
  net_retract sim r.r_job.id;
  net_install sim new_alloc;
  Sim.Engine.schedule sim.engine ~time:r'.r_end ~priority:0
    ~tag:(Printf.sprintf "c:%d:%d:%d" r.r_job.id r.r_attempt r'.r_epoch)
    (fun _ -> complete_job sim r.r_job.id ~attempt:r.r_attempt ~epoch:r'.r_epoch);
  record sim;
  r'

(* Molding up: when the queue has fully drained, offer idle capacity to
   the running moldable jobs (in job-id order, for determinism) that
   were granted less than their maximum.  Growth only ever uses
   resources no queued job is waiting for — the pass runs strictly on an
   empty queue — and each job takes the largest feasible target in
   (granted, max], found by binary search on the resize probe. *)
and grow_pass sim =
  let candidates =
    Hashtbl.fold
      (fun _ r acc ->
        if
          Trace.Job.is_moldable r.r_job
          && r.r_alloc.Alloc.size < Trace.Job.max_size r.r_job
        then r :: acc
        else acc)
      sim.running []
    |> List.sort (fun a b -> compare a.r_job.id b.r_job.id)
  in
  List.iter
    (fun r0 ->
      (* Re-read: an earlier grow in this pass (derived re-probe grows
         can relocate) may have consumed the nodes this one planned on,
         and the job may even have completed meanwhile (it cannot — no
         time passes — but the lookup also drops any stale [r0]). *)
      match Hashtbl.find_opt sim.running r0.r_job.id with
      | None -> ()
      | Some r when r.r_epoch <> r0.r_epoch -> ()
      | Some r ->
          let cur = r.r_alloc.Alloc.size in
          let try_target target =
            match
              sim.cfg.allocator.try_resize sim.st r.r_job ~current:r.r_alloc
                ~target
            with
            | Allocator.Resized a -> Some a
            | Allocator.No_resize -> None
          in
          let upper = Trace.Job.max_size r.r_job in
          let best =
            match try_target upper with
            | Some a -> Some (upper, a)
            | None ->
                (* Largest feasible target in (cur, upper): grow
                   feasibility is antitone in the target for every
                   bundled resize path, so binary search applies. *)
                let lo = ref cur and hi = ref upper in
                let best = ref None in
                while !hi - !lo > 1 do
                  let mid = (!lo + !hi) / 2 in
                  match try_target mid with
                  | Some a ->
                      lo := mid;
                      best := Some (mid, a)
                  | None -> hi := mid
                done;
                !best
          in
          match best with
          | None -> ()
          | Some (target, new_alloc) ->
              let r' = swap_alloc sim r new_alloc in
              sim.acc.grown <- sim.acc.grown + 1;
              emit sim (fun () ->
                  Obs.Event.Resize
                    {
                      job = r.r_job.id;
                      from_size = cur;
                      to_size = target;
                      new_end = r'.r_est_end;
                    }))
    candidates

and request_pass sim =
  if not sim.pass_scheduled then begin
    sim.pass_scheduled <- true;
    (* Tagged "p" but never checkpointed: passes always run at the
       current instant, so [run_until] drains them before a snapshot. *)
    Sim.Engine.schedule sim.engine ~time:(Sim.Engine.now sim.engine) ~priority:2
      ~tag:"p" (fun _ ->
        sim.pass_scheduled <- false;
        schedule_pass sim)
  end

(* Earliest future completion time at which the head job could be placed,
   together with the concrete allocation it would get then.  Returns
   [None] if the job cannot be placed even on the fully drained
   machine. *)
and compute_reservation sim (head : Trace.Job.t) =
  (* The scheduler plans against ESTIMATED completions — it cannot know
     actual runtimes.  Since estimates are >= actuals, the reservation is
     conservative; the head still starts earlier if resources free up
     sooner (every completion triggers a scheduling pass). *)
  let scratch () =
    let sc =
      match sim.scratch with
      | Some sc -> sc
      | None ->
          let sc = State.create (State.topo sim.st) in
          sim.scratch <- Some sc;
          sc
    in
    State.copy_into ~src:sim.st ~dst:sc;
    sc
  in
  let search () =
    let running =
      Hashtbl.fold
        (fun _ r acc -> (r.r_est_end, r.r_alloc) :: acc)
        sim.running []
    in
    reservation sim.cfg.allocator ~scratch ~running ~job:head
  in
  match sim.cfg.prof with
  | Some p -> Obs.Prof.time p "sched/reservation" search
  | None -> search ()

and schedule_pass sim =
  emit sim (fun () ->
      Obs.Event.Pass_start { pending = Hashtbl.length sim.pending });
  prof_incr sim "sched/passes";
  let started_before = sim.acc.started_total in
  run_pass sim;
  emit sim (fun () ->
      Obs.Event.Pass_end { started = sim.acc.started_total - started_before })

and run_pass sim =
  (* A queue entry is live iff the job is still pending AND the entry
     carries the job's current enqueue stamp — a started-then-requeued
     job's stale entry has an old stamp and is skipped even though the
     pending table holds the id again. *)
  let live (id, gen) =
    Hashtbl.mem sim.pending id && Hashtbl.find_opt sim.pending_gen id = Some gen
  in
  (* Pop dead entries off the queue head. *)
  let rec head_job () =
    match Queue.peek_opt sim.pending_ids with
    | None -> None
    | Some ((id, _) as entry) ->
        if live entry then Hashtbl.find_opt sim.pending id
        else begin
          ignore (Queue.pop sim.pending_ids);
          head_job ()
        end
  in
  (* Phase 1: start jobs from the head while they fit. *)
  let rec drain_head () =
    match head_job () with
    | None -> None
    | Some j -> (
        match probe_job sim ~ctx:Obs.Event.Head j with
        | Some alloc ->
            ignore (Queue.pop sim.pending_ids);
            Hashtbl.remove sim.pending j.id;
            start_job sim ~ctx:Obs.Event.Head j alloc;
            drain_head ()
        | None -> Some j)
  in
  match drain_head () with
  | None ->
      (* Queue fully drained: no job is waiting on the idle capacity, so
         offer it to the running moldable jobs.  A no-op on rigid
         traces. *)
      grow_pass sim
  | Some head when not sim.cfg.backfill ->
      (* Plain FIFO: the head simply waits for resources.  Oversized
         requests must still be rejected, or they would wedge the queue
         forever. *)
      if sim.acc.first_blocked_time < 0.0 then
        sim.acc.first_blocked_time <- Sim.Engine.now sim.engine;
      if Trace.Job.min_size head > Fattree.Topology.num_nodes (State.topo sim.st)
      then begin
        ignore (Queue.pop sim.pending_ids);
        Hashtbl.remove sim.pending head.id;
        sim.acc.rejected <- sim.acc.rejected + 1;
        emit sim (fun () -> Obs.Event.Reject { job = head.id });
        request_pass sim
      end
  | Some head -> (
      if sim.acc.first_blocked_time < 0.0 then
        sim.acc.first_blocked_time <- Sim.Engine.now sim.engine;
      (* Phase 2: reservation for the head... *)
      match timed sim (fun () -> compute_reservation sim head) with
      | None
        when Trace.Job.min_size head
             > Fattree.Topology.num_nodes (State.topo sim.st)
             || (not (State.has_failures sim.st))
             || sim.acc.pending_repairs = 0 ->
          (* Definitively impossible: the job exceeds nameplate capacity,
             or even the fully drained machine — healthy, or degraded
             with no repair left to ever enlarge it.  Reject and continue
             with the rest. *)
          ignore (Queue.pop sim.pending_ids);
          Hashtbl.remove sim.pending head.id;
          sim.acc.rejected <- sim.acc.rejected + 1;
          (match sim.reserved with
          | Some (id, _) when id = head.id ->
              sim.reserved <- None;
              emit sim (fun () -> Obs.Event.Reservation_clear { job = head.id })
          | _ -> ());
          emit sim (fun () -> Obs.Event.Reject { job = head.id });
          request_pass sim
      | None ->
          (* The head only exceeds *currently surviving* capacity: a
             scheduled repair may make it feasible, so leave it blocked.
             Each repair bumps [release_generation] and requests a pass,
             which retries this reservation. *)
          ()
      | Some (res_time, res_alloc) ->
          if sim.reserved <> Some (head.id, res_time) then begin
            sim.reserved <- Some (head.id, res_time);
            emit sim (fun () ->
                Obs.Event.Reservation_set
                  {
                    job = head.id;
                    at = res_time;
                    nodes = Array.length res_alloc.nodes;
                    leaf_cables = Array.length res_alloc.leaf_cables;
                    l2_cables = Array.length res_alloc.l2_cables;
                  })
          end;
          (* ...phase 3: EASY backfill within the lookahead window.  The
             reserved resources become bitsets so each candidate's
             disjointness test is an O(1)-per-element membership probe
             with no per-pass set construction. *)
          let topo = State.topo sim.st in
          let res_nodes =
            Sim.Bitset.of_array (Fattree.Topology.num_nodes topo)
              res_alloc.nodes
          in
          let res_leaf =
            Sim.Bitset.of_array
              (Fattree.Topology.num_leaf_l2_cables topo)
              res_alloc.leaf_cables
          in
          let res_l2 =
            Sim.Bitset.of_array
              (Fattree.Topology.num_l2_spine_cables topo)
              res_alloc.l2_cables
          in
          let disjoint_from_reservation (a : Alloc.t) =
            (not (Sim.Bitset.intersects_array res_nodes a.nodes))
            && (not (Sim.Bitset.intersects_array res_leaf a.leaf_cables))
            && not (Sim.Bitset.intersects_array res_l2 a.l2_cables)
          in
          let candidates =
            let acc = ref [] and count = ref 0 in
            (try
               Queue.iter
                 (fun ((id, _) as entry) ->
                   if !count >= sim.cfg.backfill_window then raise Exit;
                   if live entry && id <> head.id then begin
                     incr count;
                     acc := Hashtbl.find sim.pending id :: !acc
                   end)
                 sim.pending_ids
             with Exit -> ());
            List.rev !acc
          in
          List.iter
            (fun (j : Trace.Job.t) ->
              (* Membership is re-checked at start time, not just at
                 collection time: stamped entries make duplicates
                 impossible today, but a double start would silently
                 leak an allocation, so the guard is cheap insurance. *)
              if
                Hashtbl.mem sim.pending j.id
                && State.total_free_nodes sim.st >= Trace.Job.min_size j
              then begin
                match probe_job sim ~ctx:Obs.Event.Backfill j with
                | Some alloc ->
                    let now = Sim.Engine.now sim.engine in
                    let fits_before =
                      now +. job_estimate j ~granted:alloc.Alloc.size
                      <= res_time
                    in
                    if fits_before || disjoint_from_reservation alloc then begin
                      Hashtbl.remove sim.pending j.id;
                      start_job sim ~ctx:Obs.Event.Backfill j alloc
                    end
                | None -> ()
              end)
            candidates)

let arrive sim (j : Trace.Job.t) =
  (* A fresh stamp per (re-)arrival: any stale queue entry left behind
     by a backfill start of an earlier attempt goes permanently dead,
     and the job is live only at the back of the queue. *)
  let gen = 1 + Option.value (Hashtbl.find_opt sim.pending_gen j.id) ~default:(-1) in
  Hashtbl.replace sim.pending_gen j.id gen;
  Queue.add (j.id, gen) sim.pending_ids;
  Hashtbl.replace sim.pending j.id j;
  emit sim (fun () -> Obs.Event.Arrival { job = j.id; size = j.size });
  (* No sample here: Table 2 measures utilization at schedule and
     completion events only, and arrivals do not change occupancy. *)
  request_pass sim

(* ---- faults -------------------------------------------------------- *)

(* Kill a running job whose partition lost a resource: release what is
   left of its allocation (failed nodes stay withdrawn), then either
   resubmit the job after the configured delay or abandon it. *)
let kill_job sim (r : running) =
  Hashtbl.remove sim.running r.r_job.id;
  State.release sim.st r.r_alloc;
  sim.acc.alloc_busy <- sim.acc.alloc_busy - Array.length r.r_alloc.nodes;
  sim.acc.req_busy <- sim.acc.req_busy - r.r_alloc.Alloc.size;
  sim.acc.interrupted <- sim.acc.interrupted + 1;
  let now = Sim.Engine.now sim.engine in
  let kills =
    1 + Option.value (Hashtbl.find_opt sim.kills r.r_job.id) ~default:0
  in
  Hashtbl.replace sim.kills r.r_job.id kills;
  let requeue =
    sim.cfg.resilience.requeue && kills <= sim.cfg.resilience.max_retries
  in
  (* The work lost is what the granted nodes actually computed: under
     work-conserving molding a shrunk job burns [granted] node-seconds
     per second, not its nominal request.  Equal for rigid jobs. *)
  let lost = (now -. r.r_start) *. float_of_int r.r_alloc.Alloc.size in
  if sim.cfg.resilience.charge_lost_work || not requeue then
    sim.acc.lost_node_time <- sim.acc.lost_node_time +. lost;
  emit sim (fun () ->
      Obs.Event.Kill { job = r.r_job.id; attempt = r.r_attempt; lost });
  net_retract sim r.r_job.id;
  if requeue then begin
    sim.acc.requeued <- sim.acc.requeued + 1;
    let resume_at = now +. sim.cfg.resilience.resubmit_delay in
    emit sim (fun () ->
        Obs.Event.Requeue { job = r.r_job.id; attempt = kills; resume_at });
    Sim.Engine.schedule sim.engine ~time:resume_at ~priority:1
      ~tag:(Printf.sprintf "a:%d" r.r_job.id)
      (fun _ -> arrive sim r.r_job)
  end
  else begin
    sim.acc.abandoned <- sim.acc.abandoned + 1;
    emit sim (fun () ->
        Obs.Event.Abandon { job = r.r_job.id; attempt = r.r_attempt })
  end

(* Fault recovery by molding (the [resilience.shrink] policy): a
   moldable victim that only lost nodes — every cable intact — and can
   still meet its minimum size retracts exactly the failed nodes' share
   and compresses the remaining work onto the survivors.  No work is
   lost and no kill/requeue/retry is consumed.  Anything else (cable
   hit, would drop below [min_size], rigid job, allocator refuses) falls
   back to the ordinary kill path. *)
let shrink_or_kill sim (r : running) =
  let alloc = r.r_alloc in
  let failed_nodes =
    Array.fold_left
      (fun acc nd -> if State.node_failed sim.st nd then acc + 1 else acc)
      0 alloc.Alloc.nodes
  in
  let cables_ok =
    Array.for_all
      (fun c -> not (State.leaf_cable_failed sim.st c))
      alloc.Alloc.leaf_cables
    && Array.for_all
         (fun c -> not (State.l2_cable_failed sim.st c))
         alloc.Alloc.l2_cables
  in
  let target = alloc.Alloc.size - failed_nodes in
  if
    not
      (sim.cfg.resilience.shrink
      && Trace.Job.is_moldable r.r_job
      && cables_ok && failed_nodes > 0
      && target >= Trace.Job.min_size r.r_job)
  then kill_job sim r
  else
    match
      sim.cfg.allocator.try_resize sim.st r.r_job ~current:alloc ~target
    with
    | Allocator.No_resize -> kill_job sim r
    | Allocator.Resized new_alloc ->
        sim.acc.shrunk <- sim.acc.shrunk + 1;
        emit sim (fun () ->
            Obs.Event.Shrink_recover
              {
                job = r.r_job.id;
                attempt = r.r_attempt;
                from_size = alloc.Alloc.size;
                to_size = new_alloc.Alloc.size;
              });
        ignore (swap_alloc sim r new_alloc)

let fault_event sim (e : Trace.Faults.event) =
  match e.kind with
  | Trace.Faults.Repair ->
      (* Behaves like a release: bumps the state's release generation,
         which invalidates the no-fit memo, and may unblock the queue. *)
      Trace.Faults.revert sim.st e.target;
      sim.acc.pending_repairs <- sim.acc.pending_repairs - 1;
      emit sim (fun () ->
          Obs.Event.Repair
            {
              target = Trace.Faults.target_name e.target;
              id = Trace.Faults.target_id e.target;
            });
      record sim;
      request_pass sim
  | Trace.Faults.Fail ->
      Trace.Faults.apply sim.st e.target;
      sim.acc.fault_events <- sim.acc.fault_events + 1;
      let topo = State.topo sim.st in
      let nodes, leaf_cables, l2_cables =
        Trace.Faults.resources topo e.target
      in
      emit sim (fun () ->
          Obs.Event.Fail
            {
              target = Trace.Faults.target_name e.target;
              id = Trace.Faults.target_id e.target;
              nodes = Array.length nodes;
              leaf_cables = Array.length leaf_cables;
              l2_cables = Array.length l2_cables;
            });
      (* Cheap prefilter before the O(running) victim scan: a fault can
         only kill jobs if it touches a claimed node or cable, and claim
         accounting ignores the failure overlay just applied.  Under
         MTBF workloads most faults land on idle resources, so the
         common case is three short-circuiting membership walks. *)
      let touches_claimed =
        State.any_claimed_in sim.st nodes
        || Array.exists (State.leaf_cable_claimed sim.st) leaf_cables
        || Array.exists (State.l2_cable_claimed sim.st) l2_cables
      in
      let victims =
        if not touches_claimed then []
        else begin
          let f_nodes =
            Sim.Bitset.of_array (Fattree.Topology.num_nodes topo) nodes
          in
          let f_leaf =
            Sim.Bitset.of_array
              (Fattree.Topology.num_leaf_l2_cables topo)
              leaf_cables
          in
          let f_l2 =
            Sim.Bitset.of_array
              (Fattree.Topology.num_l2_spine_cables topo)
              l2_cables
          in
          Hashtbl.fold
            (fun _ r acc ->
              if
                Sim.Bitset.intersects_array f_nodes r.r_alloc.nodes
                || Sim.Bitset.intersects_array f_leaf r.r_alloc.leaf_cables
                || Sim.Bitset.intersects_array f_l2 r.r_alloc.l2_cables
              then r :: acc
              else acc)
            sim.running []
          (* Hash-table fold order is an implementation detail; kill (and
             hence requeue) in job-id order so same-instant resubmissions
             enter the queue deterministically across OCaml versions. *)
          |> List.sort (fun a b -> compare a.r_job.id b.r_job.id)
        end
      in
      List.iter (shrink_or_kill sim) victims;
      record sim;
      (* Kills released healthy resources; the fault alone only removed
         some, so a pass is useful only after a kill (a shrink recovery
         frees nothing healthy, but a pass is still harmless). *)
      if victims <> [] then request_pass sim

(* ---- online operations (daemon front-end) -------------------------- *)

(* The three mutators below are the daemon's write surface.  Each one
   only *schedules* engine events; the caller is expected to follow up
   with [run_until] to the stamped time, which executes them and drains
   any same-instant scheduling pass — keeping the simulation
   snapshot-able between operations.  All are pure functions of the
   simulation state and their arguments, so a WAL replay of the same
   calls with the same stamps reproduces the run bit-identically. *)

let submit sim (j : Trace.Job.t) =
  if Hashtbl.mem sim.jobs_by_id j.id then
    Error (Printf.sprintf "job %d already exists" j.id)
  else if j.arrival < Sim.Engine.now sim.engine then
    Error
      (Printf.sprintf "job %d arrival %.17g is in the past (now %.17g)" j.id
         j.arrival (Sim.Engine.now sim.engine))
  else begin
    Hashtbl.replace sim.jobs_by_id j.id j;
    sim.dyn_jobs <- j :: sim.dyn_jobs;
    Sim.Engine.schedule sim.engine ~time:j.arrival ~priority:1
      ~tag:(Printf.sprintf "a:%d" j.id)
      (fun _ -> arrive sim j);
    Ok ()
  end

type cancel_outcome = Cancelled | Not_pending | Unknown_job

let cancel sim id =
  if not (Hashtbl.mem sim.jobs_by_id id) then Unknown_job
  else if not (Hashtbl.mem sim.pending id) then
    (* Running, finished, rejected, abandoned, or not yet arrived — the
       queue entry is the only thing a cancel may retract. *)
    Not_pending
  else begin
    Hashtbl.remove sim.pending id;
    (* Dropping the generation kills the queue entry lazily, exactly
       like a requeue invalidates a backfilled job's stale entry. *)
    Hashtbl.remove sim.pending_gen id;
    sim.acc.cancelled <- sim.acc.cancelled + 1;
    (match sim.reserved with
    | Some (rid, _) when rid = id ->
        sim.reserved <- None;
        emit sim (fun () -> Obs.Event.Reservation_clear { job = id })
    | _ -> ());
    record sim;
    (* The head (or its reservation) may have been the cancelled job;
       re-run the pass so the queue reflects the withdrawal. *)
    request_pass sim;
    Cancelled
  end

type resize_outcome = Resized_to of int | Resize_refused of string

(* Online resize of a running moldable job to an explicit size within
   its declared [min_size, max_size] range.  A refusal is a legitimate
   reply, not corruption: the outcome is a deterministic function of the
   simulation state and the arguments, so a WAL replay reproduces it. *)
let resize sim id ~size =
  let refuse fmt = Printf.ksprintf (fun m -> Resize_refused m) fmt in
  if not (Hashtbl.mem sim.jobs_by_id id) then refuse "unknown job %d" id
  else
    match Hashtbl.find_opt sim.running id with
    | None -> refuse "job %d is not running" id
    | Some r when not (Trace.Job.is_moldable r.r_job) ->
        refuse "job %d is rigid" id
    | Some r
      when size < Trace.Job.min_size r.r_job
           || size > Trace.Job.max_size r.r_job ->
        refuse "size %d outside job %d's moldable range [%d, %d]" size id
          (Trace.Job.min_size r.r_job)
          (Trace.Job.max_size r.r_job)
    | Some r when size = r.r_alloc.Alloc.size -> Resized_to size
    | Some r -> (
        match
          sim.cfg.allocator.try_resize sim.st r.r_job ~current:r.r_alloc
            ~target:size
        with
        | Allocator.No_resize ->
            refuse "no feasible allocation for job %d at size %d" id size
        | Allocator.Resized new_alloc ->
            let from_size = r.r_alloc.Alloc.size in
            let r' = swap_alloc sim r new_alloc in
            emit sim (fun () ->
                Obs.Event.Resize
                  {
                    job = id;
                    from_size;
                    to_size = new_alloc.Alloc.size;
                    new_end = r'.r_est_end;
                  });
            (* A shrink released healthy nodes the queue may be waiting
               for; a grow consumed some — either way the pass is due. *)
            request_pass sim;
            Resized_to new_alloc.Alloc.size)

let inject_fault sim (e : Trace.Faults.event) =
  if e.time < Sim.Engine.now sim.engine then
    Error
      (Printf.sprintf "fault time %.17g is in the past (now %.17g)" e.time
         (Sim.Engine.now sim.engine))
  else
    match Trace.Faults.resources (State.topo sim.st) e.target with
    | exception Invalid_argument m -> Error m
    | _ ->
        (* The tag index continues past the static trace; [of_snapshot]
           rebuilds the merged array with [Faults.of_ordered], so the
           index keeps naming this event across a restore even though
           its time may precede later-positioned static events. *)
        let idx =
          Array.length (Trace.Faults.events sim.cfg.faults)
          + List.length sim.dyn_faults
        in
        sim.dyn_faults <- e :: sim.dyn_faults;
        if e.kind = Trace.Faults.Repair then
          sim.acc.pending_repairs <- sim.acc.pending_repairs + 1;
        Sim.Engine.schedule sim.engine ~time:e.time ~priority:0
          ~tag:(Printf.sprintf "f:%d" idx)
          (fun _ -> fault_event sim e);
        Ok ()

let pending_count sim = Hashtbl.length sim.pending
let running_count sim = Hashtbl.length sim.running
let finished_count sim = List.length sim.finished
let cancelled_count sim = sim.acc.cancelled
let rejected_count sim = sim.acc.rejected
let known_job sim id = Hashtbl.mem sim.jobs_by_id id

let net_summary sim =
  Option.map
    (fun nt -> Routing.Telemetry.summary nt ~now:(Sim.Engine.now sim.engine))
    sim.net
let max_job_id sim = Hashtbl.fold (fun id _ acc -> max id acc) sim.jobs_by_id (-1)

let fault_log sim =
  Array.append
    (Trace.Faults.events sim.cfg.faults)
    (Array.of_list (List.rev sim.dyn_faults))

(* Shared by [start] and [of_snapshot]: the run header (re-emitted on
   restore so a trace of the resumed segment is self-describing) and the
   profiling hook sampling the event-queue depth at every step. *)
let announce sim =
  emit sim (fun () ->
      Obs.Event.Run_meta
        {
          trace = sim.workload.name;
          scheme = sim.cfg.allocator.name;
          scenario = Trace.Scenario.name sim.cfg.scenario;
          radix = sim.cfg.radix;
          nodes = Fattree.Topology.num_nodes (State.topo sim.st);
          jobs = Array.length sim.workload.jobs;
        });
  match sim.cfg.prof with
  | Some p ->
      Sim.Engine.set_on_step sim.engine
        (Some
           (fun e ->
             Obs.Prof.sample p "gauge/event_queue"
               (float_of_int (Sim.Engine.pending e))))
  | None -> ()

let start cfg (w : Trace.Workload.t) =
  let topo = Fattree.Topology.of_radix cfg.radix in
  let sim =
    {
      cfg;
      workload = w;
      st = State.create topo;
      engine = Sim.Engine.create ();
      pending_ids = Queue.create ();
      pending = Hashtbl.create 1024;
      pending_gen = Hashtbl.create 1024;
      running = Hashtbl.create 256;
      nofit = Hashtbl.create 64;
      nofit_release_gen = 0;
      pass_scheduled = false;
      acc = Acc.create ();
      samples = [];
      finished = [];
      kills = Hashtbl.create 64;
      reserved = None;
      scratch = None;
      jobs_by_id = Hashtbl.create (max 16 (Array.length w.jobs));
      dyn_jobs = [];
      dyn_faults = [];
      net =
        Option.map
          (fun (policy, shape) ->
            Routing.Telemetry.create topo ~policy ~shape ~now:0.0)
          cfg.net;
    }
  in
  sim.acc.pending_repairs <-
    Array.fold_left
      (fun acc (e : Trace.Faults.event) ->
        if e.kind = Trace.Faults.Repair then acc + 1 else acc)
      0
      (Trace.Faults.events cfg.faults);
  Array.iter
    (fun (j : Trace.Job.t) -> Hashtbl.replace sim.jobs_by_id j.id j)
    w.jobs;
  announce sim;
  Array.iter
    (fun (j : Trace.Job.t) ->
      Sim.Engine.schedule sim.engine ~time:j.arrival ~priority:1
        ~tag:(Printf.sprintf "a:%d" j.id)
        (fun _ -> arrive sim j))
    w.jobs;
  (* Fault events run at completion priority: a failure at instant [t]
     lands before [t]'s arrivals and scheduling passes.  The tag indexes
     into the (immutable, sorted) fault trace so a checkpoint can name
     the event without serializing its closure. *)
  Array.iteri
    (fun i (e : Trace.Faults.event) ->
      Sim.Engine.schedule sim.engine ~time:e.time ~priority:0
        ~tag:(Printf.sprintf "f:%d" i)
        (fun _ -> fault_event sim e))
    (Trace.Faults.events cfg.faults);
  sim

let now sim = Sim.Engine.now sim.engine
let is_finished sim = Sim.Engine.pending sim.engine = 0

let run_until sim horizon =
  Sim.Engine.run_until sim.engine horizon;
  (* [run_until] drains every event at or before the horizon, so any
     same-instant scheduling pass has run too. *)
  assert (not sim.pass_scheduled)

let finish sim =
  let cfg = sim.cfg in
  let w = sim.workload in
  let topo = State.topo sim.st in
  Sim.Engine.run sim.engine;
  (* Import the externally maintained tallies so the profile report is
     self-contained: one registry holds the whole run's cost picture. *)
  (match cfg.prof with
  | Some p ->
      Obs.Prof.set p "state/clones" (State.clone_count sim.st);
      Obs.Prof.set p "state/claims" (State.claim_count sim.st);
      Obs.Prof.set p "state/releases" (State.release_count sim.st);
      Obs.Prof.set p "state/failures" (State.failure_count sim.st);
      Obs.Prof.set p "state/repairs" (State.repair_count sim.st);
      Obs.Prof.set p "engine/steps" (Sim.Engine.steps sim.engine)
  | None -> ());
  Obs.Sink.flush cfg.sink;
  (* ---- metrics ---- *)
  let n_nodes = Fattree.Topology.num_nodes topo in
  let samples = Array.of_list (List.rev sim.samples) in
  (* Steady state: from the moment demand first exceeds the machine (a
     head job blocks) until the last job start; this trims both the
     cold-start ramp and the final drain (paper section 5).  Traces that
     never saturate fall back to the first job start. *)
  let steady_start =
    if sim.acc.first_blocked_time >= 0.0 then sim.acc.first_blocked_time
    else Float.max 0.0 sim.acc.first_start_time
  in
  let steady_end = sim.acc.last_start_time in
  let alloc_area = ref 0.0 and req_area = ref 0.0 and healthy_area = ref 0.0 in
  let hist = Sim.Stats.Hist.create ~boundaries:Metrics.table2_boundaries in
  let prev_t = ref steady_start
  and prev_alloc = ref 0
  and prev_req = ref 0
  and prev_failed = ref 0 in
  Array.iter
    (fun (t, ab, rb, _pending, fl) ->
      if t > !prev_t && !prev_t >= steady_start && t <= steady_end then begin
        let dt = t -. !prev_t in
        alloc_area := !alloc_area +. (float_of_int !prev_alloc *. dt);
        req_area := !req_area +. (float_of_int !prev_req *. dt);
        healthy_area :=
          !healthy_area +. (float_of_int (n_nodes - !prev_failed) *. dt)
      end;
      if t >= steady_start && t <= steady_end then
        Sim.Stats.Hist.add hist (float_of_int rb /. float_of_int n_nodes);
      if t <= steady_end then begin
        prev_t := Float.max t steady_start;
        prev_alloc := ab;
        prev_req := rb;
        prev_failed := fl
      end)
    samples;
  let duration = steady_end -. steady_start in
  let avg_utilization =
    if duration > 0.0 then !req_area /. (float_of_int n_nodes *. duration)
    else 0.0
  in
  let alloc_utilization =
    if duration > 0.0 then !alloc_area /. (float_of_int n_nodes *. duration)
    else 0.0
  in
  let healthy_fraction =
    if duration > 0.0 then !healthy_area /. (float_of_int n_nodes *. duration)
    else 1.0
  in
  let util_vs_healthy =
    if !healthy_area > 0.0 then !req_area /. !healthy_area else 0.0
  in
  let finished = sim.finished in
  let makespan =
    List.fold_left (fun acc r -> Float.max acc r.Metrics.end_time) 0.0 finished
  in
  let tat_all, n_all = Metrics.mean_turnaround finished ~large_only:false in
  let tat_large, n_large = Metrics.mean_turnaround finished ~large_only:true in
  let metrics =
    {
      Metrics.trace_name = w.name;
      sched_name = cfg.allocator.name;
      scenario_name = Trace.Scenario.name cfg.scenario;
      cluster_nodes = n_nodes;
      num_jobs = n_all;
      rejected = sim.acc.rejected;
      stuck_pending = Hashtbl.length sim.pending;
      avg_utilization;
      alloc_utilization;
      inst_hist = Sim.Stats.Hist.counts hist;
      makespan;
      avg_turnaround_all = tat_all;
      avg_turnaround_large = tat_large;
      num_large = n_large;
      sched_time_total = sim.acc.sched_clock;
      sched_time_per_job =
        (if n_all > 0 then sim.acc.sched_clock /. float_of_int n_all else 0.0);
      steady_start;
      steady_end;
      fault_events = sim.acc.fault_events;
      interrupted = sim.acc.interrupted;
      requeued = sim.acc.requeued;
      abandoned = sim.acc.abandoned;
      lost_node_time = sim.acc.lost_node_time;
      shrunk = sim.acc.shrunk;
      grown = sim.acc.grown;
      healthy_fraction;
      util_vs_healthy;
      series =
        Array.init
          (2 * Array.length samples)
          (fun k ->
            let t, _, rb, _, _ = samples.(k / 2) in
            if k mod 2 = 0 then t
            else float_of_int rb /. float_of_int n_nodes);
    }
  in
  (metrics, finished)

type t = sim

let run_detailed cfg w = finish (start cfg w)
let run cfg w = fst (run_detailed cfg w)

(* ---- checkpoint snapshots ------------------------------------------ *)

module Snapshot = struct
  type event = { ev_time : float; ev_priority : int; ev_seq : int; ev_tag : string }

  type running_job = {
    rs_job : int;
    rs_attempt : int;
    rs_epoch : int;  (** 0 unless the attempt was resized in place. *)
    rs_start : float;
    rs_end : float;
    rs_est_end : float;
    rs_alloc : Alloc.t;  (** [rs_alloc.size] is the granted size. *)
  }

  type finished_job = { fs_job : int; fs_start : float; fs_end : float }

  type t = {
    params : Params.t;
    jobs : Trace.Job.t array;
    faults : Trace.Faults.event array;
    (* engine *)
    clock : float;
    steps : int;
    next_seq : int;
    events : event array;  (** Pending events in [seq] order. *)
    (* scheduler state *)
    queue : (int * int) array;  (** [(id, stamp)], queue front first. *)
    pending_live : int array;  (** Ids in the pending table, ascending. *)
    pending_gens : (int * int) array;  (** [(id, stamp)], ascending id. *)
    running : running_job array;  (** Ascending job id. *)
    nofit : (int * float) array;  (** Memoized no-fit classes, ascending. *)
    nofit_release_gen : int;
    kills : (int * int) array;  (** [(id, kills)], ascending id. *)
    reserved : (int * float) option;
    acc : Acc.t;
    samples : (float * int * int * int * int) array;  (** Chronological. *)
    finished : finished_job array;  (** Completion order. *)
    (* state operation counters *)
    st_claims : int;
    st_releases : int;
    st_failures : int;
    st_repairs : int;
    st_clones : int;
  }
end

let sorted_pairs tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare |> Array.of_list

let snapshot sim : Snapshot.t =
  if sim.pass_scheduled then
    invalid_arg
      "Simulator.snapshot: a scheduling pass is in flight; snapshot only \
       after run_until";
  let events =
    Sim.Engine.pending_events sim.engine
    |> List.map (fun (t, p, s, tag) ->
           if tag = "" || tag = "p" then
             invalid_arg
               (Printf.sprintf
                  "Simulator.snapshot: unserializable pending event (tag %S)"
                  tag);
           { Snapshot.ev_time = t; ev_priority = p; ev_seq = s; ev_tag = tag })
    |> Array.of_list
  in
  let running =
    Hashtbl.fold
      (fun _ r acc ->
        {
          Snapshot.rs_job = r.r_job.id;
          rs_attempt = r.r_attempt;
          rs_epoch = r.r_epoch;
          rs_start = r.r_start;
          rs_end = r.r_end;
          rs_est_end = r.r_est_end;
          rs_alloc = r.r_alloc;
        }
        :: acc)
      sim.running []
    |> List.sort (fun a b -> compare a.Snapshot.rs_job b.Snapshot.rs_job)
    |> Array.of_list
  in
  let finished =
    List.rev_map
      (fun (pj : Metrics.per_job) ->
        {
          Snapshot.fs_job = pj.job.id;
          fs_start = pj.start_time;
          fs_end = pj.end_time;
        })
      sim.finished
    |> Array.of_list
  in
  {
    Snapshot.params = Params.of_config sim.cfg sim.workload;
    jobs =
      (match sim.dyn_jobs with
      | [] -> sim.workload.Trace.Workload.jobs
      | dyn ->
          Array.append sim.workload.Trace.Workload.jobs
            (Array.of_list (List.rev dyn)));
    faults = fault_log sim;
    clock = Sim.Engine.now sim.engine;
    steps = Sim.Engine.steps sim.engine;
    next_seq = Sim.Engine.next_seq sim.engine;
    events;
    queue =
      (let acc = ref [] in
       Queue.iter (fun e -> acc := e :: !acc) sim.pending_ids;
       Array.of_list (List.rev !acc));
    pending_live =
      (Hashtbl.fold (fun id _ acc -> id :: acc) sim.pending []
      |> List.sort compare |> Array.of_list);
    pending_gens = sorted_pairs sim.pending_gen;
    running;
    nofit =
      (Hashtbl.fold (fun k () acc -> k :: acc) sim.nofit []
      |> List.sort compare |> Array.of_list);
    nofit_release_gen = sim.nofit_release_gen;
    kills = sorted_pairs sim.kills;
    reserved = sim.reserved;
    acc = Acc.copy sim.acc;
    samples = Array.of_list (List.rev sim.samples);
    finished;
    st_claims = State.claim_count sim.st;
    st_releases = State.release_count sim.st;
    st_failures = State.failure_count sim.st;
    st_repairs = State.repair_count sim.st;
    st_clones = State.clone_count sim.st;
  }

exception Restore_error of string

let restore_fail fmt =
  Printf.ksprintf (fun m -> raise (Restore_error m)) fmt

let of_snapshot ?(sink = Obs.Sink.null) ?prof ?net (s : Snapshot.t) =
  try
    let p = s.params in
    let cfg =
      (* [of_ordered], not [scripted]: the array's positions are the
         [f:<idx>] event tags, and a daemon-injected event may sit after
         a static event it precedes in time — re-sorting would silently
         retarget every pending fault tag. *)
      match
        Params.to_config
          ~faults:(Trace.Faults.of_ordered (Array.to_list s.faults))
          ~sink ?prof ?net p
      with
      | Ok cfg -> cfg
      | Error m -> restore_fail "%s" m
    in
    let w =
      Trace.Workload.create ~name:p.trace_name ~system_nodes:p.system_nodes
        s.jobs
    in
    let job_tbl = Hashtbl.create (Array.length s.jobs) in
    Array.iter (fun (j : Trace.Job.t) -> Hashtbl.replace job_tbl j.id j) s.jobs;
    let find_job id =
      match Hashtbl.find_opt job_tbl id with
      | Some j -> j
      | None -> restore_fail "checkpoint references unknown job id %d" id
    in
    let topo = Fattree.Topology.of_radix p.radix in
    let st = State.create topo in
    (* Rebuild the cluster state by replaying the executed fault prefix
       (all events at or before the checkpoint clock, in trace order)
       and then re-claiming the running allocations.  Bandwidth demands
       are dyadic fractions, so the cable arithmetic is exact, and live
       faults never intersect running allocations (intersecting jobs
       were killed at the fault instant), so the rebuilt summaries are
       bit-identical to the uninterrupted run's. *)
    (* Stable time order, not array order: injected events live past the
       static suffix but may precede it in time, and a revert must never
       run before its matching apply (repairing a healthy resource
       raises).  For a purely static trace the array is already
       time-sorted, so the stable sort is the identity. *)
    Array.to_list s.faults
    |> List.filter (fun (e : Trace.Faults.event) -> e.time <= s.clock)
    |> List.stable_sort (fun (a : Trace.Faults.event) b ->
           compare a.time b.time)
    |> List.iter (fun (e : Trace.Faults.event) ->
           match e.kind with
           | Trace.Faults.Fail -> Trace.Faults.apply st e.target
           | Trace.Faults.Repair -> Trace.Faults.revert st e.target);
    let running_tbl = Hashtbl.create 256 in
    (* Telemetry state is not checkpointed: it is a pure function of the
       running set, so it is rebuilt here by re-routing each running
       allocation at the restore clock.  No events are emitted — this is
       reconstruction, not replay — so post-restore traces stay
       byte-identical to the uninterrupted run's suffix. *)
    let net_state =
      Option.map
        (fun (policy, shape) ->
          Routing.Telemetry.create topo ~policy ~shape ~now:s.clock)
        net
    in
    Array.iter
      (fun (r : Snapshot.running_job) ->
        let j = find_job r.rs_job in
        let alloc = r.rs_alloc in
        (match State.claim_exn ~validate:false st alloc with
        | () -> ()
        | exception e ->
            restore_fail "checkpoint is inconsistent: re-claiming job %d: %s"
              r.rs_job (Printexc.to_string e));
        Option.iter
          (fun nt ->
            ignore (Routing.Telemetry.add_job nt ~now:s.clock alloc))
          net_state;
        Hashtbl.replace running_tbl r.rs_job
          {
            r_job = j;
            r_alloc = alloc;
            r_start = r.rs_start;
            r_end = r.rs_end;
            r_est_end = r.rs_est_end;
            r_attempt = r.rs_attempt;
            r_epoch = r.rs_epoch;
          })
      s.running;
    (* Overwrite the op tallies so generations (and hence the no-fit
       memo guard and the end-of-run profile counters) match the
       uninterrupted run exactly. *)
    State.set_op_counters st ~claims:s.st_claims ~releases:s.st_releases
      ~failures:s.st_failures ~repairs:s.st_repairs ~clones:s.st_clones;
    (* The memo stamp may lag the state's release generation (the memo
       resets lazily, on its next consult) — but it can never be ahead
       of it. *)
    if s.nofit_release_gen > State.release_generation st then
      restore_fail
        "checkpoint is inconsistent: no-fit generation %d ahead of restored \
         state %d"
        s.nofit_release_gen
        (State.release_generation st);
    let engine =
      Sim.Engine.restore ~clock:s.clock ~steps:s.steps ~next_seq:s.next_seq
    in
    let sim =
      {
        cfg;
        workload = w;
        st;
        engine;
        pending_ids = Queue.create ();
        pending = Hashtbl.create 1024;
        pending_gen = Hashtbl.create 1024;
        running = running_tbl;
        nofit = Hashtbl.create 64;
        nofit_release_gen = s.nofit_release_gen;
        pass_scheduled = false;
        acc = Acc.copy s.acc;
        samples = List.rev (Array.to_list s.samples);
        finished =
          Array.fold_left
            (fun acc (f : Snapshot.finished_job) ->
              {
                Metrics.job = find_job f.fs_job;
                start_time = f.fs_start;
                end_time = f.fs_end;
              }
              :: acc)
            [] s.finished;
        kills = Hashtbl.create 64;
        reserved = s.reserved;
        scratch = None;
        jobs_by_id = job_tbl;
        dyn_jobs = [];
        dyn_faults = [];
        net = net_state;
      }
    in
    Array.iter (fun (id, g) -> Queue.add (id, g) sim.pending_ids) s.queue;
    Array.iter
      (fun id -> Hashtbl.replace sim.pending id (find_job id))
      s.pending_live;
    Array.iter
      (fun (id, g) -> Hashtbl.replace sim.pending_gen id g)
      s.pending_gens;
    Array.iter (fun key -> Hashtbl.replace sim.nofit key ()) s.nofit;
    Array.iter (fun (id, k) -> Hashtbl.replace sim.kills id k) s.kills;
    (* Re-materialize the event heap from the tags, preserving exact
       sequence numbers so same-instant tie-breaking (and therefore
       every float summation order downstream) is unchanged. *)
    let fault_arr = Trace.Faults.events cfg.faults in
    Array.iter
      (fun (ev : Snapshot.event) ->
        let action =
          match String.split_on_char ':' ev.ev_tag with
          | [ "a"; id ] ->
              let j = find_job (int_of_string id) in
              fun _ -> arrive sim j
          | [ "c"; id; attempt ] ->
              let id = int_of_string id and attempt = int_of_string attempt in
              fun _ -> complete_job sim id ~attempt ~epoch:0
          | [ "c"; id; attempt; epoch ] ->
              let id = int_of_string id
              and attempt = int_of_string attempt
              and epoch = int_of_string epoch in
              fun _ -> complete_job sim id ~attempt ~epoch
          | [ "f"; idx ] ->
              let i = int_of_string idx in
              if i < 0 || i >= Array.length fault_arr then
                restore_fail "checkpoint references fault event %d of %d" i
                  (Array.length fault_arr);
              fun _ -> fault_event sim fault_arr.(i)
          | _ -> restore_fail "unknown event tag %S" ev.ev_tag
          | exception Failure _ ->
              restore_fail "malformed event tag %S" ev.ev_tag
        in
        match
          Sim.Engine.schedule_restored sim.engine ~time:ev.ev_time
            ~priority:ev.ev_priority ~seq:ev.ev_seq ~tag:ev.ev_tag action
        with
        | () -> ()
        | exception Invalid_argument m -> restore_fail "%s" m)
      s.events;
    (* Emission never touches simulator state, so metrics are
       unaffected. *)
    announce sim;
    Ok sim
  with
  | Restore_error m -> Error m
  | Invalid_argument m -> Error m

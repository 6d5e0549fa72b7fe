(* Simulator phase: the workload's job stream under the five Figure-6
   schemes.  An untraced round measures what a user sees (wall time,
   the paper's sched_time_per_job, utilization); a traced round adds
   the per-layer view, measured from outside the program by wrapping
   the allocator record's four function fields, handing the simulator
   a profiling registry, and interposing a timestamping sink. *)

open Util

let schemes = Sched.Allocator.all

(* Metric-name label of a scheme ("LC+S" is not a valid name part). *)
let label (a : Sched.Allocator.t) = if a.name = "LC+S" then "LCS" else a.name
let labels = List.map label schemes

type run = {
  scheme : string;
  metrics : Sched.Metrics.t;
  net : Routing.Telemetry.summary option;
  wall_s : float;  (** [Simulator.finish] only; [start] is set-up. *)
}

let config (w : Workloads.t) (s : Workloads.sub) alloc =
  Sched.Simulator.Config.make ~faults:s.faults ~resilience:w.resilience
    ?net:w.net ~radix:w.radix alloc

(* Every scheme's simulation of one sub-trace, started but not run. *)
let start_all w (s : Workloads.sub) =
  List.map (fun alloc -> (alloc, Sched.Simulator.start (config w s alloc) s.stream)) schemes

let finish alloc sim =
  Gc.full_major ();
  calibrate ();
  let t0 = now_ns () in
  let metrics, _ = Sched.Simulator.finish sim in
  let wall_s = elapsed_s t0 in
  { scheme = label alloc; metrics; net = Sched.Simulator.net_summary sim; wall_s }

(* ---- checks ---- *)

(* Returns the failed checks of one scheme run, as messages. *)
let check (s : Workloads.sub) ~reference (r : run) =
  let m = r.metrics in
  let submitted = Array.length s.stream.jobs in
  let accounted = m.num_jobs + m.rejected + m.stuck_pending + m.abandoned in
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  if accounted <> submitted then
    fail "%s: job conservation: ran %d + rejected %d + stuck %d + abandoned %d \
          <> submitted %d"
      r.scheme m.num_jobs m.rejected m.stuck_pending m.abandoned submitted;
  (match (r.net, r.scheme) with
  | Some s, ("Jigsaw" | "LaaS" | "TA") when s.sm_peak_interfered <> 0 ->
      fail "%s: %d interfered flows on an isolating scheme" r.scheme
        s.sm_peak_interfered
  | _ -> ());
  (match reference with
  | Some fp when fp <> Sched.Metrics.fingerprint m ->
      fail "%s: fingerprint %s differs from this seed's first run %s" r.scheme
        (Sched.Metrics.fingerprint m) fp
  | _ -> ());
  List.rev !fails

(* ---- per-layer instrumentation ---- *)

type alloc_acc = {
  mutable calls : int;
  mutable fits : int;
  mutable busy_ns : float;
  durs : Samples.t;
}

let instrument acc (a : Sched.Allocator.t) =
  let time fit f =
    let t0 = now_ns () in
    let r = f () in
    let dt = elapsed_ns t0 in
    acc.calls <- acc.calls + 1;
    if fit r then acc.fits <- acc.fits + 1;
    acc.busy_ns <- acc.busy_ns +. dt;
    Samples.add acc.durs dt;
    r
  in
  {
    a with
    try_alloc = (fun st j -> time Option.is_some (fun () -> a.try_alloc st j));
    probe =
      (fun st j ->
        time
          (function Sched.Allocator.Alloc _ -> true | _ -> false)
          (fun () -> a.probe st j));
    probe_sized =
      (fun st j ->
        time
          (function Sched.Allocator.Sized _ -> true | _ -> false)
          (fun () -> a.probe_sized st j));
    try_resize =
      (fun st j ~current ~target ->
        time
          (function Sched.Allocator.Resized _ -> true | No_resize -> false)
          (fun () -> a.try_resize st j ~current ~target));
  }

type sink_acc = {
  mutable events : int;
  mutable emit_ns : float;
  mutable pass_t0 : int64;
  passes : Samples.t;
}

let timestamping acc (inner : Obs.Sink.t) =
  {
    Obs.Sink.enabled = true;
    emit =
      (fun ev ->
        let t0 = now_ns () in
        (match ev.Obs.Event.payload with
        | Obs.Event.Pass_start _ -> acc.pass_t0 <- t0
        | Obs.Event.Pass_end _ ->
            Samples.add acc.passes (Int64.to_float (Int64.sub t0 acc.pass_t0))
        | _ -> ());
        inner.emit ev;
        acc.events <- acc.events + 1;
        acc.emit_ns <- acc.emit_ns +. elapsed_ns t0);
    flush = inner.flush;
  }

(* One traced scheme run's layer figures (times in ms unless named). *)
type layers = {
  l_calls : float;
  l_busy_ms : float;
  l_call_us_p99 : float;
  l_fit_ratio : float;
  l_head_ms : float;
  l_backfill_ms : float;
  l_reservation_ms : float;
  l_backfill_yield : float;
  l_memo_hit_rate : float;
  l_pass_ms_p50 : float;
  l_pass_ms_p99 : float;
  l_claims : float;
  l_route_ms : float;
  l_retract_ms : float;
  l_events : float;
  l_emit_ms : float;
  l_unattributed_pct : float;
}

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let traced_run w (s : Workloads.sub) ~dir alloc =
  let aacc =
    { calls = 0; fits = 0; busy_ns = 0.0; durs = Samples.create () }
  in
  let sacc =
    { events = 0; emit_ns = 0.0; pass_t0 = 0L; passes = Samples.create () }
  in
  let prof = Obs.Prof.create () in
  let oc = open_out_bin (Filename.concat dir "trace.jsonl") in
  let cfg =
    config w s (instrument aacc alloc)
    |> Sched.Simulator.Config.with_prof (Some prof)
    |> Sched.Simulator.Config.with_sink (timestamping sacc (Obs.Sink.jsonl oc))
  in
  let sim = Sched.Simulator.start cfg s.stream in
  let r = finish alloc sim in
  close_out oc;
  let span_ms name =
    match Obs.Prof.find_span prof name with
    | Some v -> v.sp_total_ns /. 1e6
    | None -> 0.0
  in
  let span_count name =
    match Obs.Prof.find_span prof name with Some v -> v.sp_count | None -> 0
  in
  let c = Obs.Prof.counter prof in
  let head = span_ms "sched/head_probe"
  and backfill = span_ms "sched/backfill_probe"
  and reservation = span_ms "sched/reservation"
  and route = span_ms "net/route"
  and retract = span_ms "net/retract"
  and emit = sacc.emit_ns /. 1e6 in
  let wall_ms = r.wall_s *. 1e3 in
  let attributed = head +. backfill +. reservation +. route +. retract +. emit in
  let probes =
    c "probe/fit" + c "probe/infeasible" + c "probe/exhausted"
    + c "probe/memo_hit"
  in
  let passes = Samples.to_array sacc.passes in
  ( r,
    {
      l_calls = float_of_int aacc.calls;
      l_busy_ms = aacc.busy_ns /. 1e6;
      l_call_us_p99 = quantile 0.99 (Samples.to_array aacc.durs) /. 1e3;
      l_fit_ratio = ratio aacc.fits aacc.calls;
      l_head_ms = head;
      l_backfill_ms = backfill;
      l_reservation_ms = reservation;
      l_backfill_yield =
        ratio (c "sched/backfill_starts") (span_count "sched/backfill_probe");
      l_memo_hit_rate = ratio (c "probe/memo_hit") probes;
      l_pass_ms_p50 = quantile 0.5 passes /. 1e6;
      l_pass_ms_p99 = quantile 0.99 passes /. 1e6;
      l_claims = float_of_int (c "state/claims" + c "state/releases");
      l_route_ms = route;
      l_retract_ms = retract;
      l_events = float_of_int sacc.events;
      l_emit_ms = emit;
      l_unattributed_pct =
        (if wall_ms > 0.0 then 100.0 *. (wall_ms -. attributed) /. wall_ms
         else 0.0);
    } )

(* The per-layer metric names of one scheme, in output order, with a
   projection from [layers]. *)
let layer_fields =
  [
    ("allocator.calls", "count", fun l -> l.l_calls);
    ("allocator.busy_ms", "ms", fun l -> l.l_busy_ms);
    ("allocator.call_us_p99", "us", fun l -> l.l_call_us_p99);
    ("allocator.fit_ratio", "ratio", fun l -> l.l_fit_ratio);
    ("simulator.head_probe_ms", "ms", fun l -> l.l_head_ms);
    ("simulator.backfill_probe_ms", "ms", fun l -> l.l_backfill_ms);
    ("simulator.reservation_ms", "ms", fun l -> l.l_reservation_ms);
    ("simulator.backfill_yield", "ratio", fun l -> l.l_backfill_yield);
    ("simulator.memo_hit_rate", "ratio", fun l -> l.l_memo_hit_rate);
    ("simulator.pass_ms_p50", "ms", fun l -> l.l_pass_ms_p50);
    ("simulator.pass_ms_p99", "ms", fun l -> l.l_pass_ms_p99);
    ("fattree.claims", "count", fun l -> l.l_claims);
    ("routing.route_ms", "ms", fun l -> l.l_route_ms);
    ("routing.retract_ms", "ms", fun l -> l.l_retract_ms);
    ("obs.events", "count", fun l -> l.l_events);
    ("obs.emit_ms", "ms", fun l -> l.l_emit_ms);
    ("unattributed_pct", "%", fun l -> l.l_unattributed_pct);
  ]

(* ---- context rows (printed, never gated) ---- *)

let context_row (w : Workloads.t) (s : Workloads.sub) (r : run) =
  let m = r.metrics in
  let net =
    match r.net with
    | None -> ""
    | Some s ->
        Printf.sprintf " peak_interfered=%d interfered_frac=%.4f"
          s.sm_peak_interfered s.sm_interfered_fraction
  in
  Printf.sprintf
    "context %s sub %d sim %-8s util_req=%.2f%% util_held=%.2f%% healthy=%.2f%% \
     tat=%.0f ran=%d rejected=%d stuck=%d killed=%d requeued=%d abandoned=%d \
     fingerprint=%s%s"
    w.name s.index r.scheme
    (100.0 *. m.avg_utilization)
    (100.0 *. m.alloc_utilization)
    (100.0 *. m.healthy_fraction)
    m.avg_turnaround_all m.num_jobs m.rejected m.stuck_pending m.interrupted
    m.requeued m.abandoned
    (Sched.Metrics.fingerprint m)
    net

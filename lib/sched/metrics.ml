let table2_boundaries = [| 0.60; 0.80; 0.90; 0.95; 0.98 |]

type per_job = { job : Trace.Job.t; start_time : float; end_time : float }

type t = {
  trace_name : string;
  sched_name : string;
  scenario_name : string;
  cluster_nodes : int;
  num_jobs : int;
  rejected : int;
  stuck_pending : int;
  avg_utilization : float;
  alloc_utilization : float;
  inst_hist : int array;
  makespan : float;
  avg_turnaround_all : float;
  avg_turnaround_large : float;
  num_large : int;
  sched_time_total : float;
  sched_time_per_job : float;
  steady_start : float;
  steady_end : float;
  fault_events : int;
  interrupted : int;
  requeued : int;
  abandoned : int;
  lost_node_time : float;
  shrunk : int;
  grown : int;
  healthy_fraction : float;
  util_vs_healthy : float;
  series : float array; (* flattened (time, utilization) pairs *)
}

let mean_turnaround jobs ~large_only =
  let selected =
    List.filter (fun r -> (not large_only) || Trace.Job.is_large r.job) jobs
  in
  let n = List.length selected in
  if n = 0 then (0.0, 0)
  else begin
    let total =
      List.fold_left
        (fun acc r -> acc +. (r.end_time -. r.job.Trace.Job.arrival))
        0.0 selected
    in
    (total /. float_of_int n, n)
  end

let series_length m = Array.length m.series / 2
let series_point m i = (m.series.(2 * i), m.series.((2 * i) + 1))

let iter_series m f =
  for i = 0 to series_length m - 1 do
    f m.series.(2 * i) m.series.((2 * i) + 1)
  done

(* ------------------------------------------------------------------ *)
(* Machine-readable output                                             *)
(* ------------------------------------------------------------------ *)

(* Flat key/value view of a result row, shared by the JSON encoder and
   the fingerprint below.  The histogram is flattened to [inst_hist_<i>]
   keys so the line stays parseable by the flat [Obs.Json] reader; the
   (long) series is exported separately as CSV. *)
let json_fields m =
  let open Obs.Json in
  let n name v = (name, Num v) in
  let i name v = (name, Num (float_of_int v)) in
  [
    ("trace", Str m.trace_name);
    ("sched", Str m.sched_name);
    ("scenario", Str m.scenario_name);
    i "cluster_nodes" m.cluster_nodes;
    i "num_jobs" m.num_jobs;
    i "rejected" m.rejected;
    i "stuck_pending" m.stuck_pending;
    n "avg_utilization" m.avg_utilization;
    n "alloc_utilization" m.alloc_utilization;
  ]
  @ List.mapi (fun idx c -> i (Printf.sprintf "inst_hist_%d" idx) c)
      (Array.to_list m.inst_hist)
  @ [
      n "makespan" m.makespan;
      n "avg_turnaround_all" m.avg_turnaround_all;
      n "avg_turnaround_large" m.avg_turnaround_large;
      i "num_large" m.num_large;
      n "sched_time_total" m.sched_time_total;
      n "sched_time_per_job" m.sched_time_per_job;
      n "steady_start" m.steady_start;
      n "steady_end" m.steady_end;
      i "fault_events" m.fault_events;
      i "interrupted" m.interrupted;
      i "requeued" m.requeued;
      i "abandoned" m.abandoned;
      n "lost_node_time" m.lost_node_time;
    ]
  (* The molding counters appear only when molding actually happened, so
     every pre-molding row (and its fingerprint) is byte-identical. *)
  @ (if m.shrunk > 0 then [ i "shrunk" m.shrunk ] else [])
  @ (if m.grown > 0 then [ i "grown" m.grown ] else [])
  @ [
      n "healthy_fraction" m.healthy_fraction;
      n "util_vs_healthy" m.util_vs_healthy;
      i "series_points" (series_length m);
    ]

let to_json_string ?(extra = []) m =
  let b = Buffer.create 512 in
  (* Extras (wall-clock, domain count, ...) go last so the simulated
     fields keep their historical positions; the fingerprint never sees
     them — it reads [json_fields] directly. *)
  Obs.Json.write b (json_fields m @ extra);
  (* [Obs.Json.write] ends the line; callers print the bare object. *)
  let s = Buffer.contents b in
  if String.length s > 0 && s.[String.length s - 1] = '\n' then
    String.sub s 0 (String.length s - 1)
  else s

(* The behavioural digest: every simulated quantity, including the full
   utilization series, but nothing wall-clock — [sched_time_*] vary
   from run to run, so including them would make the "tracing changes
   nothing" equality test vacuous. *)
let fingerprint m =
  let b = Buffer.create 4096 in
  List.iter
    (fun (k, v) ->
      if k <> "sched_time_total" && k <> "sched_time_per_job" then begin
        Buffer.add_string b k;
        Buffer.add_char b '=';
        (match v with
        | Obs.Json.Str s -> Buffer.add_string b s
        | Obs.Json.Num x -> Buffer.add_string b (Printf.sprintf "%.17g" x));
        Buffer.add_char b '\n'
      end)
    (json_fields m);
  iter_series m (fun t u ->
      Buffer.add_string b (Printf.sprintf "%.17g,%.17g\n" t u));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Manifest round-trip: a result row must come back bit-identical so a
   resumed sweep can re-verify the stored fingerprint.  The series rides
   in one packed string of [%h] hex-float pairs — exact by construction,
   and free of the characters the flat JSON writer escapes. *)

let series_encode m =
  let b = Buffer.create (8 * Array.length m.series) in
  iter_series m (fun t u ->
      if Buffer.length b > 0 then Buffer.add_char b ' ';
      Buffer.add_string b (Printf.sprintf "%h:%h" t u));
  Buffer.contents b

let series_decode s =
  if s = "" then Ok [||]
  else
    try
      String.split_on_char ' ' s
      |> List.map (fun pair ->
             match String.split_on_char ':' pair with
             (* %h prints "0x1.8p-2": the mantissa/exponent separator is
                'p', so ':' splits cleanly. *)
             | [ t; u ] -> [ float_of_string t; float_of_string u ]
             | _ -> failwith pair)
      |> List.concat |> Array.of_list |> Result.ok
    with Failure _ ->
      Error "malformed series string (expected space-separated t:u pairs)"

let of_json ~series fields =
  try
    let str = Obs.Json.str fields
    and num = Obs.Json.num fields
    and int = Obs.Json.int fields in
    let inst_hist =
      Array.init
        (Array.length table2_boundaries + 1)
        (fun idx -> int (Printf.sprintf "inst_hist_%d" idx))
    in
    match series_decode series with
    | Error m -> Error m
    | Ok series ->
        if Array.length series / 2 <> int "series_points" then
          Error
            (Printf.sprintf "series has %d points, row says %d"
               (Array.length series / 2) (int "series_points"))
        else
          Ok
            {
              trace_name = str "trace";
              sched_name = str "sched";
              scenario_name = str "scenario";
              cluster_nodes = int "cluster_nodes";
              num_jobs = int "num_jobs";
              rejected = int "rejected";
              stuck_pending = int "stuck_pending";
              avg_utilization = num "avg_utilization";
              alloc_utilization = num "alloc_utilization";
              inst_hist;
              makespan = num "makespan";
              avg_turnaround_all = num "avg_turnaround_all";
              avg_turnaround_large = num "avg_turnaround_large";
              num_large = int "num_large";
              sched_time_total = num "sched_time_total";
              sched_time_per_job = num "sched_time_per_job";
              steady_start = num "steady_start";
              steady_end = num "steady_end";
              fault_events = int "fault_events";
              interrupted = int "interrupted";
              requeued = int "requeued";
              abandoned = int "abandoned";
              lost_node_time = num "lost_node_time";
              shrunk = (if Obs.Json.mem fields "shrunk" then int "shrunk" else 0);
              grown = (if Obs.Json.mem fields "grown" then int "grown" else 0);
              healthy_fraction = num "healthy_fraction";
              util_vs_healthy = num "util_vs_healthy";
              series;
            }
  with Obs.Json.Parse_error m -> Error m

let write_series_csv oc m =
  output_string oc "time,utilization\n";
  iter_series m (fun t u -> Printf.fprintf oc "%.17g,%.17g\n" t u)

let pp_row ppf m =
  Format.fprintf ppf
    "%-10s %-8s %-6s util=%5.1f%% (held %5.1f%%) makespan=%11.0f tat=%10.0f tat100=%10.0f sched=%.5fs/job"
    m.trace_name m.sched_name m.scenario_name
    (100.0 *. m.avg_utilization)
    (100.0 *. m.alloc_utilization)
    m.makespan m.avg_turnaround_all m.avg_turnaround_large m.sched_time_per_job;
  (* The failure layer is pay-for-what-you-use: a zero-fault run prints
     the exact line it always did. *)
  if m.fault_events > 0 then
    Format.fprintf ppf
      " | faults=%d healthy=%5.2f%% util/healthy=%5.1f%% interrupted=%d requeued=%d abandoned=%d lost=%.0f node-s"
      m.fault_events
      (100.0 *. m.healthy_fraction)
      (100.0 *. m.util_vs_healthy)
      m.interrupted m.requeued m.abandoned m.lost_node_time;
  if m.shrunk > 0 || m.grown > 0 then
    Format.fprintf ppf " | resized: shrunk=%d grown=%d" m.shrunk m.grown;
  (* A wedged queue is a result, not a footnote: jobs neither ran nor
     were rejected, and no other number accounts for them. *)
  if m.stuck_pending > 0 then
    Format.fprintf ppf " | STUCK=%d jobs still pending at end" m.stuck_pending

(* All result printing funnels through here: one formatter, two faces.
   [Human] is the historical one-line row; [Json] is one flat JSON
   object per row, line-oriented so downstream tooling can stream it. *)
type format = Human | Json

let format_name = function Human -> "human" | Json -> "json"

let format_of_name = function
  | "human" -> Some Human
  | "json" -> Some Json
  | _ -> None

let pp ~format ppf m =
  match format with
  | Human -> pp_row ppf m
  | Json -> Format.pp_print_string ppf (to_json_string m)

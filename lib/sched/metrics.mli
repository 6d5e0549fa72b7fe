(** Simulation results: the measurements behind every table and figure of
    the paper's evaluation. *)

(** Instantaneous-utilization buckets of Table 2 (percent ranges). *)
val table2_boundaries : float array
(** [0.60; 0.80; 0.90; 0.95; 0.98] — producing buckets <=60, 60-80,
    80-90, 90-95, 95-97(.99), >=98 as fractions of the node count. *)

type per_job = {
  job : Trace.Job.t;
  start_time : float;
  end_time : float;
}

type t = {
  trace_name : string;
  sched_name : string;
  scenario_name : string;
  cluster_nodes : int;
  num_jobs : int;  (** Jobs that ran. *)
  rejected : int;  (** Jobs impossible on this cluster under this policy. *)
  stuck_pending : int;
      (** Jobs still queued when the simulation drained its events — a
          head wedged behind permanently lost capacity (e.g. FIFO mode
          under an unrepaired fault) plus everything behind it.  Always
          0 on a healthy machine. *)
  avg_utilization : float;
      (** Steady-state average node utilization in [0,1], the paper's U:
          node-seconds of {e requested} nodes over capacity between the
          first job start and the final drain.  Nodes a scheduler
          allocates beyond the request (LaaS/TA padding) count as lost —
          "allocated to jobs that do not need them" (§6.1). *)
  alloc_utilization : float;
      (** Same window, counting every {e held} node (padding included).
          The gap to [avg_utilization] is internal node fragmentation. *)
  inst_hist : int array;
      (** Table 2: per-bucket counts of instantaneous utilization
          (requested nodes / system nodes) sampled at every schedule or
          completion event within the steady window; index 0 = lowest
          bucket (<= 60%). *)
  makespan : float;  (** First arrival to last completion. *)
  avg_turnaround_all : float;
  avg_turnaround_large : float;  (** Jobs over 100 nodes. *)
  num_large : int;
  sched_time_total : float;
      (** Wall-clock seconds spent in scheduling decisions (allocation
          searches, reservations and backfill probes). *)
  sched_time_per_job : float;
  steady_start : float;
  steady_end : float;
  fault_events : int;
      (** Fail events applied during the run (0 on a healthy machine). *)
  interrupted : int;
      (** Running jobs killed because a fault landed on their partition. *)
  requeued : int;  (** Killed attempts resubmitted by the resilience policy. *)
  abandoned : int;
      (** Killed jobs dropped for good (policy off or retry cap hit). *)
  lost_node_time : float;
      (** Node-seconds of killed work ("lost node-hours" in the trace's
          time unit).  With [charge_lost_work = false], only abandoning
          kills are charged. *)
  shrunk : int;
      (** Fault recoveries by in-place shrink (the [resilience.shrink]
          policy): moldable jobs that lost nodes but kept running on the
          survivors instead of being killed.  Serialized (and printed)
          only when non-zero, so pre-molding rows and fingerprints are
          byte-identical. *)
  grown : int;
      (** Idle-capacity grows of running moldable jobs (end-of-pass grow
          on an empty queue plus accepted online resizes upward).  Same
          only-when-non-zero serialization rule as [shrunk]. *)
  healthy_fraction : float;
      (** Time-weighted fraction of nodes not failed over the steady
          window; 1.0 on a healthy machine. *)
  util_vs_healthy : float;
      (** [avg_utilization] measured against surviving capacity instead
          of nameplate capacity: requested node-seconds over healthy
          node-seconds.  Equals [avg_utilization] (up to rounding) when
          nothing fails. *)
  series : float array;
      (** Instantaneous utilization over the whole run: (time, requested
          nodes / system nodes) at every schedule/completion event,
          flattened — point [i] is [(series.(2i), series.(2i+1))], read
          it with {!series_point}.  Kept unboxed because sweeps and the
          benchmark hold many result rows at once.  For CSV export and
          plotting; the steady-window metrics above are derived from
          it. *)
}

val series_length : t -> int
(** Number of points in {!field-series}. *)

val series_point : t -> int -> float * float
(** [series_point m i] is the [i]-th (time, utilization) point. *)

val pp_row : Format.formatter -> t -> unit
(** One-line summary (the [Human] face of {!pp}). *)

(** Output faces of a result row.  Every printer funnels through {!pp}
    so the human and machine forms can never drift apart. *)
type format = Human | Json

val format_name : format -> string
val format_of_name : string -> format option

val pp : format:format -> Format.formatter -> t -> unit
(** [Human]: the {!pp_row} line.  [Json]: one flat JSON object (no
    newline), parseable by [Obs.Json.parse_line]; the instantaneous
    histogram appears as [inst_hist_<i>] keys and the series only by
    length ([series_points]) — export the series itself with
    {!write_series_csv}. *)

val json_fields : t -> (string * Obs.Json.value) list
(** The flat key/value view behind the [Json] face and {!fingerprint}:
    every simulated scalar, the histogram flattened to [inst_hist_<i>]
    keys, and the series by length only ([series_points]).  Sweep
    manifests persist rows through this view. *)

val to_json_string : ?extra:(string * Obs.Json.value) list -> t -> string
(** The [Json] face as a string.  [extra] fields (e.g. [wall_clock_s],
    [jobs]) are appended after the simulated fields so BENCH files are
    self-describing; they never enter {!fingerprint}. *)

val fingerprint : t -> string
(** Hex digest of every {e simulated} quantity — all scalar results,
    the instantaneous histogram and the full utilization series — but
    excluding the wall-clock [sched_time_*] fields.  Two runs are
    behaviourally identical iff their fingerprints match; the
    observability layer is required to keep this invariant (tracing
    on/off must not change it). *)

val write_series_csv : out_channel -> t -> unit
(** [time,utilization] CSV of the full series (full float precision). *)

(** {1 Manifest round-trip}

    Sweep manifests persist completed cells as one flat JSON row plus a
    packed series string; reading them back must reproduce the exact
    {!fingerprint}, so every float crosses the file through an exact
    representation. *)

val series_encode : t -> string
(** The utilization series as space-separated [t:u] pairs in [%h] hex
    floats (exact round-trip). *)

val series_decode : string -> (float array, string) result
(** Inverse of {!series_encode}, in the flattened layout of
    {!field-series}. *)

val of_json :
  series:string -> (string * Obs.Json.value) list -> (t, string) result
(** Rebuild a result row from its [Json] fields (as written by {!pp} /
    {!to_json_string}) and a {!series_encode} string.  [Error] on a
    missing or mistyped field, a malformed series, or a length mismatch
    against the row's [series_points]. *)

val mean_turnaround : per_job list -> large_only:bool -> float * int
(** Average turnaround (end - arrival) and the population size, over all
    jobs or only large ones. *)

(* The daemon's replayable state machine.

   One rule produces every recovery guarantee downstream: the simulation
   state is a pure function of (params, the sequence of applied WAL
   entries).  [admit] does all fallible validation against current state
   *before* anything is logged; [apply] is then infallible for admitted
   ops and is driven identically by the live request path and by WAL
   replay.  Time is folded in by stamping each op with
   [max (requested, now)] at admission and replaying [run_until stamp;
   op; run_until stamp] — the second slice drains same-instant
   scheduling passes, so the state is always snapshot-able between
   entries.

   The balance table tracks live fail/repair pairing per fault target:
   [Fattree.State] raises if a repair lands on a healthy resource, and
   unlike the offline simulator (whose fault script is validated as a
   whole) the daemon sees faults one at a time, so the pairing check
   must happen at admission. *)

let num_i i = Obs.Json.Num (float_of_int i)

include Sched.Simulator.Params.Record

let params_to_fields = Sched.Simulator.Params.to_fields
let params_of_fields = Sched.Simulator.Params.of_fields

type t = {
  sim : Sched.Simulator.t;
  params : params;
  topo : Fattree.Topology.t;  (* for fault-target range validation *)
  balance : (string, int) Hashtbl.t;  (* "<target>:<id>" -> live fails *)
  dedup : (string, int) Hashtbl.t;  (* rid -> seq of first application *)
  mutable next_job_id : int;
  mutable last_seq : int;
  mutable drained : (Sched.Metrics.t * string) option;
}

let params t = t.params
let now t = Sched.Simulator.now t.sim
let last_seq t = t.last_seq
let fingerprint t = Option.map snd t.drained
let metrics t = Option.map fst t.drained
let find_rid t rid = Hashtbl.find_opt t.dedup rid
let note_rid t rid seq = Hashtbl.replace t.dedup rid seq

let balance_key target =
  Printf.sprintf "%s:%d"
    (Trace.Faults.target_name target)
    (Trace.Faults.target_id target)

let balance_of t target =
  Option.value ~default:0 (Hashtbl.find_opt t.balance (balance_key target))

let bump_balance t target d =
  Hashtbl.replace t.balance (balance_key target) (balance_of t target + d)

let of_sim ~params ~last_seq sim =
  let t =
    {
      sim;
      params;
      topo = Fattree.Topology.of_radix params.radix;
      balance = Hashtbl.create 64;
      dedup = Hashtbl.create 256;
      next_job_id = Sched.Simulator.max_job_id sim + 1;
      last_seq;
      drained = None;
    }
  in
  (* Every event in the log has executed (daemon ops always run_until
     their own stamp), so the live fail count per target is a plain
     fold. *)
  Array.iter
    (fun (e : Trace.Faults.event) ->
      bump_balance t e.target
        (match e.kind with Trace.Faults.Fail -> 1 | Trace.Faults.Repair -> -1))
    (Sched.Simulator.fault_log sim);
  t

let create ?sink ?prof p =
  Sched.Simulator.Params.to_config ?sink ?prof p
  |> Result.map (fun config ->
         Trace.Workload.create ~name:p.trace_name ~system_nodes:p.system_nodes
           [||]
         |> Sched.Simulator.start config
         |> of_sim ~params:p ~last_seq:(-1))

let of_checkpoint ?sink ?prof ~path () =
  match Sched.Checkpoint.load_ext ~path with
  | Error m -> Error m
  | Ok (snap, header) -> (
      match
        try Ok (Obs.Json.int header "x_svc_seq")
        with Obs.Json.Parse_error _ ->
          Error (path ^ ": checkpoint carries no x_svc_seq (not a daemon \
                         checkpoint)")
      with
      | Error m -> Error m
      | Ok last_seq -> (
          match Sched.Simulator.of_snapshot ?sink ?prof snap with
          | Error m -> Error m
          | Ok sim ->
              Ok (of_sim ~params:snap.params ~last_seq sim)))

let checkpoint t ~path =
  match t.drained with
  | Some _ -> false  (* the WAL'd drain op re-derives everything *)
  | None ->
      Sched.Checkpoint.save
        ~meta:[ ("x_svc_seq", num_i t.last_seq) ]
        ~path
        (Sched.Simulator.snapshot t.sim);
      Crash.hit "ckpt-post-save";
      true

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)
(* ------------------------------------------------------------------ *)

type op =
  | Submit of Trace.Job.t  (* arrival = the op's stamp *)
  | Cancel of int
  | Resize of int * int  (* job id, requested granted size *)
  | Fault of Trace.Faults.event  (* time = the op's stamp *)
  | Drain

(* Validation happens here, against the state all earlier ops produced —
   and the properties checked (id uniqueness, target ranges, fail/repair
   balance) only change through ops, so a verdict issued now still holds
   when [apply] runs right after the WAL append. *)
let admit t ~stamp (req : Protocol.request) =
  match t.drained with
  | Some _ -> Error "simulation already drained"
  | None -> (
      match req with
      | Protocol.Submit
          { id; size; min_size; max_size; runtime; est_runtime; bw_class }
        -> (
          let id =
            match id with
            | Some i -> i
            | None -> t.next_job_id
          in
          let spec =
            match (min_size, max_size) with
            | None, None -> None  (* classical rigid submission *)
            | _ ->
                Some
                  (Trace.Job.Moldable
                     {
                       min_size = Option.value ~default:size min_size;
                       max_size = Option.value ~default:size max_size;
                       pref = size;
                     })
          in
          if id < 0 then Error "job id must be non-negative"
          else if Sched.Simulator.known_job t.sim id then
            Error (Printf.sprintf "duplicate job id %d" id)
          else
            match
              Trace.Job.v ~arrival:stamp ?bw_class ?est_runtime ?spec ~id
                ~size ~runtime ()
            with
            | j -> Ok (Submit j)
            | exception Invalid_argument m -> Error m)
      | Protocol.Cancel { id } -> Ok (Cancel id)
      | Protocol.Resize { id; size } ->
          (* Whether the engine will grant the resize depends on the
             state at apply time; the verdict is part of the reply, not
             of admission.  Both verdicts are deterministic, so WAL
             replay reproduces them. *)
          if size <= 0 then Error "size must be positive"
          else Ok (Resize (id, size))
      | Protocol.Fault { kind; target } -> (
          match Trace.Faults.resources t.topo target with
          | exception Invalid_argument m -> Error m
          | _ -> (
              match kind with
              | Trace.Faults.Fail ->
                  Ok (Fault { time = stamp; kind; target })
              | Trace.Faults.Repair ->
                  if balance_of t target <= 0 then
                    Error
                      (Printf.sprintf
                         "repair of healthy target %s %d (no live fail on \
                          record)"
                         (Trace.Faults.target_name target)
                         (Trace.Faults.target_id target))
                  else Ok (Fault { time = stamp; kind; target })))
      | Protocol.Drain -> Ok Drain
      | _ -> Error "not a journaled operation")

let fields_of_op ~stamp ~rid op =
  let envelope rest =
    ("at", Obs.Json.Num stamp)
    :: (match rid with
       | None -> rest
       | Some r -> ("rid", Obs.Json.Str r) :: rest)
  in
  match op with
  | Submit j ->
      ("op", Obs.Json.Str "submit")
      :: envelope
           ([
              ("id", num_i j.id);
              ("size", num_i j.size);
            ]
           @ (match j.spec with
             | Trace.Job.Rigid _ -> []  (* keep rigid entries v1-shaped *)
             | Trace.Job.Moldable { min_size; max_size; _ } ->
                 [ ("min", num_i min_size); ("max", num_i max_size) ])
           @ [
               ("runtime", Obs.Json.Num j.runtime);
               ("est", Obs.Json.Num j.est_runtime);
               ("bw", Obs.Json.Num j.bw_class);
             ])
  | Cancel id -> ("op", Obs.Json.Str "cancel") :: envelope [ ("id", num_i id) ]
  | Resize (id, size) ->
      ("op", Obs.Json.Str "resize")
      :: envelope [ ("id", num_i id); ("size", num_i size) ]
  | Fault e ->
      ( "op",
        Obs.Json.Str
          (match e.kind with
          | Trace.Faults.Fail -> "fail"
          | Trace.Faults.Repair -> "repair") )
      :: envelope
           [
             ("target", Obs.Json.Str (Trace.Faults.target_name e.target));
             ("index", num_i (Trace.Faults.target_id e.target));
           ]
  | Drain -> ("op", Obs.Json.Str "drain") :: envelope []

let op_of_fields fields =
  try
    let stamp = Obs.Json.num fields "at" in
    let rid =
      if Obs.Json.mem fields "rid" then Some (Obs.Json.str fields "rid")
      else None
    in
    match Obs.Json.str fields "op" with
    | "submit" -> (
        let size = Obs.Json.int fields "size" in
        let spec =
          if Obs.Json.mem fields "min" || Obs.Json.mem fields "max" then
            Some
              (Trace.Job.Moldable
                 {
                   min_size =
                     (if Obs.Json.mem fields "min" then
                        Obs.Json.int fields "min"
                      else size);
                   max_size =
                     (if Obs.Json.mem fields "max" then
                        Obs.Json.int fields "max"
                      else size);
                   pref = size;
                 })
          else None
        in
        match
          Trace.Job.v ~arrival:stamp
            ~bw_class:(Obs.Json.num fields "bw")
            ~est_runtime:(Obs.Json.num fields "est")
            ?spec
            ~id:(Obs.Json.int fields "id")
            ~size
            ~runtime:(Obs.Json.num fields "runtime")
            ()
        with
        | j -> Ok (stamp, rid, Submit j)
        | exception Invalid_argument m -> Error ("bad submit entry: " ^ m))
    | "cancel" -> Ok (stamp, rid, Cancel (Obs.Json.int fields "id"))
    | "resize" ->
        Ok
          ( stamp,
            rid,
            Resize (Obs.Json.int fields "id", Obs.Json.int fields "size") )
    | ("fail" | "repair") as op -> (
        match
          Trace.Faults.target_of_name
            (Obs.Json.str fields "target")
            (Obs.Json.int fields "index")
        with
        | Error m -> Error m
        | Ok target ->
            let kind =
              if op = "fail" then Trace.Faults.Fail else Trace.Faults.Repair
            in
            Ok (stamp, rid, Fault { time = stamp; kind; target }))
    | "drain" -> Ok (stamp, rid, Drain)
    | op -> Error (Printf.sprintf "unknown WAL op %S" op)
  with Obs.Json.Parse_error m -> Error ("bad WAL entry: " ^ m)

(* Infallible for ops [admit] issued against this exact state; an
   engine-level rejection here means the WAL and the state diverged,
   which recovery must treat as corruption, not business as usual. *)
let svc_invariant m = failwith ("svc state/WAL divergence: " ^ m)

let apply t ~seq ~rid ~stamp op =
  let sim = t.sim in
  Sched.Simulator.run_until sim stamp;
  let reply =
    match op with
    | Submit j ->
        (match Sched.Simulator.submit sim j with
        | Ok () -> ()
        | Error m -> svc_invariant m);
        if j.id >= t.next_job_id then t.next_job_id <- j.id + 1;
        [ ("id", num_i j.id) ]
    | Cancel id ->
        let outcome =
          match Sched.Simulator.cancel sim id with
          | Sched.Simulator.Cancelled -> "cancelled"
          | Sched.Simulator.Not_pending -> "not-pending"
          | Sched.Simulator.Unknown_job -> "unknown-job"
        in
        [ ("outcome", Obs.Json.Str outcome) ]
    | Resize (id, size) -> (
        match Sched.Simulator.resize sim id ~size with
        | Sched.Simulator.Resized_to n ->
            [ ("outcome", Obs.Json.Str "resized"); ("size", num_i n) ]
        | Sched.Simulator.Resize_refused m ->
            [
              ("outcome", Obs.Json.Str "refused");
              ("reason", Obs.Json.Str m);
            ])
    | Fault e ->
        (match Sched.Simulator.inject_fault sim e with
        | Ok () -> ()
        | Error m -> svc_invariant m);
        bump_balance t e.target
          (match e.kind with
          | Trace.Faults.Fail -> 1
          | Trace.Faults.Repair -> -1);
        []
    | Drain ->
        let m, _ = Sched.Simulator.finish sim in
        let fp = Sched.Metrics.fingerprint m in
        t.drained <- Some (m, fp);
        [ ("fingerprint", Obs.Json.Str fp) ]
  in
  (* Second slice: execute what the op scheduled at its own stamp and
     drain the same-instant scheduling pass. *)
  (match op with Drain -> () | _ -> Sched.Simulator.run_until sim stamp);
  Crash.hit "post-apply";
  t.last_seq <- seq;
  (match rid with Some r -> Hashtbl.replace t.dedup r seq | None -> ());
  reply

let apply_entry t (e : Wal.entry) =
  match op_of_fields e.fields with
  | Error m -> Error (Printf.sprintf "WAL entry %d: %s" e.seq m)
  | Ok (stamp, rid, op) -> Ok (apply t ~seq:e.seq ~rid ~stamp op)

let status t =
  let sim = t.sim in
  [
    ("clock", Obs.Json.Num (Sched.Simulator.now sim));
    ("seq", num_i t.last_seq);
    ("pending", num_i (Sched.Simulator.pending_count sim));
    ("running", num_i (Sched.Simulator.running_count sim));
    ("finished", num_i (Sched.Simulator.finished_count sim));
    ("cancelled", num_i (Sched.Simulator.cancelled_count sim));
    ("rejected", num_i (Sched.Simulator.rejected_count sim));
    ("drained", num_i (Bool.to_int (t.drained <> None)));
  ]

let advance t upto =
  let upto = Float.max upto (Sched.Simulator.now t.sim) in
  Sched.Simulator.run_until t.sim upto

(* Service phase: a jigsaw-daemon process driven over its Unix socket
   by a closed-loop client — a fixed window of outstanding requests per
   connection — with the workload's jobs as submits (and, on faulted
   workloads, its fault script as fail/repair ops), each followed by a
   non-journaled status read.  The traced variant replays the same
   acknowledged stream in process through the public Protocol / Core /
   Wal functions at the daemon's checkpoint cadence, to split the
   daemon's time by layer. *)

open Util

(* At most one connection per core, and never more than two: the load
   is a closed loop, so more connections than cores only adds queueing. *)
let connections () = max 1 (min 2 (Domain.recommended_domain_count ()))

let window = 4

(* The daemon's defaults, mirrored for the in-process replay. *)
let ckpt_every_ops = 64
let ckpt_retain = 2

type item =
  | Submit of Trace.Job.t
  | Fault of Trace.Faults.event
  | Read

(* The request stream: submits and fault ops in time order, every
   journaled request followed by one status read. *)
let stream (w : Workloads.t) (s : Workloads.sub) =
  let jobs = Array.to_list s.daemon_stream.jobs |> List.map (fun j -> Submit j) in
  let faults =
    if not w.svc_faults then []
    else
      Array.to_list (Trace.Faults.events s.faults) |> List.map (fun e -> Fault e)
  in
  let time = function
    | Submit (j : Trace.Job.t) -> j.arrival
    | Fault (e : Trace.Faults.event) -> e.time
    | Read -> 0.0
  in
  (* Stable: at equal times submits precede faults. *)
  List.stable_sort (fun a b -> Float.compare (time a) (time b)) (jobs @ faults)
  |> List.concat_map (fun it -> [ it; Read ])
  |> Array.of_list

let json_line fields =
  let b = Buffer.create 160 in
  Obs.Json.write b fields;
  Buffer.add_char b '\n';
  Buffer.contents b

let num k v = (k, Obs.Json.Num v)
let numi k v = (k, Obs.Json.Num (float_of_int v))
let str k v = (k, Obs.Json.Str v)

(* The request line of item [k]; [at] overrides the stamp (the replay
   uses the stamp the daemon acknowledged). *)
let request_line ?at k = function
  | Submit (j : Trace.Job.t) ->
      json_line
        [
          str "op" "submit";
          numi "size" j.size;
          num "runtime" j.runtime;
          num "est_runtime" j.est_runtime;
          num "bw" j.bw_class;
          num "at" (Option.value at ~default:j.arrival);
          str "rid" (Printf.sprintf "pb:%d" k);
        ]
  | Fault (e : Trace.Faults.event) ->
      json_line
        [
          str "op" (match e.kind with Trace.Faults.Fail -> "fail" | Repair -> "repair");
          str "target" (Trace.Faults.target_name e.target);
          numi "index" (Trace.Faults.target_id e.target);
          num "at" (Option.value at ~default:e.time);
          str "rid" (Printf.sprintf "pb:%d" k);
        ]
  | Read -> json_line [ str "op" "status" ]

(* ---- daemon process ---- *)

let live_daemon = ref None

let kill_daemon () =
  match !live_daemon with
  | None -> ()
  | Some pid ->
      live_daemon := None;
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())

(* Wait up to [limit] seconds for a clean exit, then kill. *)
let reap pid ~limit =
  let t0 = now_ns () in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when elapsed_s t0 < limit ->
        Unix.sleepf 0.005;
        go ()
    | 0, _ -> kill_daemon ()
    | _ -> live_daemon := None
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> live_daemon := None
  in
  go ()

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  pending : (int * int64) Queue.t;  (** item index, send time *)
}

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some { fd; inbuf = Buffer.create 4096; pending = Queue.create () }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* Complete reply lines available on [c] after one read. *)
let read_lines c =
  let bytes = Bytes.create 65536 in
  match Unix.read c.fd bytes 0 65536 with
  | 0 -> failwith "daemon closed the connection"
  | n ->
      Buffer.add_subbytes c.inbuf bytes 0 n;
      let data = Buffer.contents c.inbuf in
      let lines = String.split_on_char '\n' data in
      let rec split acc = function
        | [ rest ] ->
            Buffer.clear c.inbuf;
            Buffer.add_string c.inbuf rest;
            List.rev acc
        | l :: tl -> split (l :: acc) tl
        | [] -> List.rev acc
      in
      split [] lines

let rec read_reply c =
  match read_lines c with
  | [] -> read_reply c
  | [ l ] -> Obs.Json.parse_line l
  | _ -> failwith "unexpected pipelined reply"

let rpc c fields =
  write_all c.fd (json_line fields);
  read_reply c

(* ---- one episode ---- *)

type ack = { mutable count : int; mutable seq : int; mutable at : float; mutable id : int }

type episode = {
  items : item array;
  acks : ack array;
  setup_s : float;
  submit_ms : float array;
  read_ms : float array;
  acked : int;  (** Submits acknowledged. *)
  wall_s : float;  (** First send to last reply of the request stream. *)
  errors : string list;
  retries : int;
  shed : int;
  daemon_fp : string;
  rss_mb : float;
}

let is_journaled = function Submit _ | Fault _ -> true | Read -> false

let run_stream conns items =
  let n = Array.length items in
  let acks = Array.init n (fun _ -> { count = 0; seq = -1; at = nan; id = -1 }) in
  let submit_ms = Samples.create () and read_ms = Samples.create () in
  let errors = ref [] and retries = ref 0 in
  let next = ref 0 and answered = ref 0 in
  let conns = Array.of_list conns in
  let send c k t0 =
    write_all c.fd (request_line k items.(k));
    Queue.add (k, t0) c.pending
  in
  let t_start = now_ns () in
  (* Journaled requests ride connection 0 and reads the last one, in
     stream order: the daemon then applies submits and faults in stamp
     order, as a single submitter would send them, while the reads
     share its reactor. *)
  let dispatch () =
    let stalled = ref false in
    while (not !stalled) && !next < n do
      let k = !next in
      let c =
        conns.(if is_journaled items.(k) then 0 else Array.length conns - 1)
      in
      if Queue.length c.pending < window then begin
        send c k (now_ns ());
        incr next
      end
      else stalled := true
    done
  in
  let handle c line =
    let k, t0 = Queue.pop c.pending in
    let dt_ms = elapsed_ns t0 /. 1e6 in
    match Obs.Json.parse_line line with
    | exception Obs.Json.Parse_error m ->
        errors := Printf.sprintf "item %d: unparseable reply: %s" k m :: !errors;
        incr answered
    | f when Obs.Json.mem f "ok" && Obs.Json.int f "ok" = 1 ->
        (match items.(k) with
        | Read -> Samples.add read_ms dt_ms
        | Submit _ | Fault _ ->
            let a = acks.(k) in
            a.count <- a.count + 1;
            a.seq <- Obs.Json.int f "seq";
            a.at <- Obs.Json.num f "at";
            if Obs.Json.mem f "id" then a.id <- Obs.Json.int f "id";
            (match items.(k) with
            | Submit _ -> Samples.add submit_ms dt_ms
            | _ -> ()));
        incr answered
    | f when Obs.Json.mem f "error" && Obs.Json.str f "error" = "overloaded" ->
        (* Shed: resend at once (the window bounds the load anyway),
           keeping the original send time so the wait counts. *)
        incr retries;
        write_all c.fd (request_line k items.(k));
        Queue.add (k, t0) c.pending
    | f ->
        errors :=
          Printf.sprintf "item %d: %s" k
            (try Obs.Json.str f "message" with _ -> line)
          :: !errors;
        incr answered
  in
  dispatch ();
  while !answered < n do
    let fds =
      Array.to_list conns
      |> List.filter (fun c -> not (Queue.is_empty c.pending))
      |> List.map (fun c -> c.fd)
    in
    (match Unix.select fds [] [] 30.0 with
    | [], _, _ -> failwith "daemon stopped answering"
    | readable, _, _ ->
        Array.iter
          (fun c ->
            if List.mem c.fd readable then List.iter (handle c) (read_lines c))
          conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    dispatch ()
  done;
  let wall_s = elapsed_s t_start in
  (acks, Samples.to_array submit_ms, Samples.to_array read_ms, wall_s,
   List.rev !errors, !retries)

let daemon_args (w : Workloads.t) ~sock ~state =
  [ "--socket"; sock; "--dir"; state; "--sched"; "Jigsaw"; "--radix";
    string_of_int w.radix; "--trace-name"; w.name; "--quiet" ]
  @ (if w.resilience.requeue then
       [ "--requeue"; string_of_int w.resilience.max_retries ]
     else [])

let episode ~daemon (w : Workloads.t) s =
  (* The client shares this process with the simulations: collect their
     garbage first, so no major slice lands inside the timed loop. *)
  Gc.full_major ();
  calibrate ();
  let items = stream w s in
  let dir = fresh_dir "svc" in
  let sock = Filename.concat dir "s" and state = Filename.concat dir "state" in
  let args = Array.of_list (daemon :: daemon_args w ~sock ~state) in
  let t0 = now_ns () in
  let pid = Unix.create_process daemon args Unix.stdin Unix.stderr Unix.stderr in
  live_daemon := Some pid;
  let rec first_conn () =
    match connect sock with
    | Some c -> c
    | None ->
        if elapsed_s t0 > 20.0 then failwith "daemon never accepted a connection";
        Unix.sleepf 0.0005;
        first_conn ()
  in
  let c0 = first_conn () in
  ignore (rpc c0 [ str "op" "ping" ]);
  let setup_s = elapsed_s t0 in
  let conns =
    c0
    :: List.init (connections () - 1) (fun _ ->
           match connect sock with
           | Some c -> c
           | None -> failwith "second connection refused")
  in
  let acks, submit_ms, read_ms, wall_s, errors, retries =
    run_stream conns items
  in
  let drain = rpc c0 [ str "op" "drain"; str "rid" "pb:drain" ] in
  let daemon_fp =
    if Obs.Json.mem drain "fingerprint" then Obs.Json.str drain "fingerprint"
    else "none"
  in
  let stats = rpc c0 [ str "op" "stats" ] in
  let shed = if Obs.Json.mem stats "shed" then Obs.Json.int stats "shed" else 0 in
  let rss_mb = peak_rss_mb pid in
  ignore (rpc c0 [ str "op" "shutdown" ]);
  List.iter (fun c -> Unix.close c.fd) conns;
  reap pid ~limit:10.0;
  rm_rf dir;
  let acked = ref 0 in
  Array.iteri
    (fun k it ->
      match it with Submit _ when acks.(k).count > 0 -> incr acked | _ -> ())
    items;
  {
    items;
    acks;
    setup_s;
    submit_ms;
    read_ms;
    acked = !acked;
    wall_s;
    errors;
    retries;
    shed;
    daemon_fp;
    rss_mb;
  }

(* Journaled items in the order the daemon applied them. *)
let by_seq ep =
  let l = ref [] in
  Array.iteri
    (fun k it -> if is_journaled it && ep.acks.(k).count > 0 then l := k :: !l)
    ep.items;
  List.sort (fun a b -> compare ep.acks.(a).seq ep.acks.(b).seq) !l

(* The acknowledged ops in the order the daemon applied them: jobs
   carry the daemon-assigned id and the acknowledged stamp as arrival,
   fault events the acknowledged stamp as time. *)
type acked_op = A_job of Trace.Job.t | A_fault of Trace.Faults.event

let op_stamp = function A_job j -> j.Trace.Job.arrival | A_fault e -> e.time

let acked_ops ep =
  List.filter_map
    (fun k ->
      let a = ep.acks.(k) in
      match ep.items.(k) with
      | Submit j -> Some (A_job { j with id = a.id; arrival = a.at })
      | Fault e -> Some (A_fault { e with time = a.at })
      | Read -> None)
    (by_seq ep)

let sim_config (w : Workloads.t) ?faults () =
  Sched.Simulator.Config.make ?faults ~resilience:w.resilience ~radix:w.radix
    Sched.Allocator.jigsaw

let empty_workload (w : Workloads.t) jobs =
  Trace.Workload.create ~name:w.name
    ~system_nodes:(Fattree.Topology.num_nodes (Fattree.Topology.of_radix w.radix))
    jobs

(* Offline reference, op by op: the simulator's online API fed the
   acknowledged ops in order, each between two [run_until] slices at its
   stamp — the daemon's documented semantics, without the daemon's
   code. *)
let online_fingerprint w ops =
  let sim = Sched.Simulator.start (sim_config w ()) (empty_workload w [||]) in
  let ok what = function Ok () -> () | Error m -> failwith (what ^ ": " ^ m) in
  List.iter
    (fun op ->
      let t = op_stamp op in
      Sched.Simulator.run_until sim t;
      (match op with
      | A_job j -> ok "submit" (Sched.Simulator.submit sim j)
      | A_fault e -> ok "fault" (Sched.Simulator.inject_fault sim e));
      Sched.Simulator.run_until sim t)
    ops;
  Sched.Metrics.fingerprint (fst (Sched.Simulator.finish sim))

(* Offline reference, whole trace: one [Simulator.run] over the acked
   jobs and fault script. *)
let batch_fingerprint w ops =
  let jobs = List.filter_map (function A_job j -> Some j | _ -> None) ops in
  let faults = List.filter_map (function A_fault e -> Some e | _ -> None) ops in
  let cfg = sim_config w ~faults:(Trace.Faults.of_ordered faults) () in
  Sched.Metrics.fingerprint
    (Sched.Simulator.run cfg (empty_workload w (Array.of_list jobs)))

(* Whether no two acknowledged ops share a stamp.  Only then must the
   whole-trace run agree with the daemon: the simulator takes every
   arrival of one instant before that instant's scheduling pass, while
   the daemon passes after each submit, and with a bounded backfill
   window the two can start different jobs. *)
let distinct_stamps ops =
  let rec go prev = function
    | [] -> true
    | op :: rest ->
        let t = op_stamp op in
        t > prev && go t rest
  in
  go neg_infinity ops

(* Both offline fingerprints of an acknowledged stream.  They depend
   on the stream alone, so a repeated episode that was acknowledged
   identically reuses them. *)
let references =
  let memo = Hashtbl.create 16 in
  fun w ops ->
    let key = Digest.string (Marshal.to_string ops []) in
    match Hashtbl.find_opt memo key with
    | Some r -> r
    | None ->
        let r = (online_fingerprint w ops, batch_fingerprint w ops) in
        Hashtbl.replace memo key r;
        r

type verdict = {
  fails : string list;  (** One message per failed operation. *)
  batch_fp : string;
  batch_gated : bool;
}

(* Failed operations of an episode: un-acked or multiply-acked
   journaled requests, error replies, and a drained fingerprint that
   differs from an offline run over the acknowledged stream. *)
let check (w : Workloads.t) ep =
  let fails = ref (List.rev_map (fun e -> "svc: " ^ e) ep.errors) in
  let fail fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
  Array.iteri
    (fun k it ->
      if is_journaled it && ep.acks.(k).count <> 1 then
        fail "svc: request %d acked %d times" k ep.acks.(k).count)
    ep.items;
  let ops = acked_ops ep in
  let online, batch_fp = references w ops in
  if online <> ep.daemon_fp then
    fail "svc: drained fingerprint %s <> op-by-op offline run %s" ep.daemon_fp
      online;
  let batch_gated = distinct_stamps ops in
  if batch_gated && batch_fp <> ep.daemon_fp then
    fail "svc: drained fingerprint %s <> whole-trace offline run %s"
      ep.daemon_fp batch_fp;
  { fails = List.rev !fails; batch_fp; batch_gated }

(* ---- in-process replay (traced runs) ---- *)

type replay = {
  parse_ms : float;
  admit_ms : float;
  append_ms : float;
  append_us : float array;
  apply_ms : float;
  apply_us : float array;
  checkpoint_ms : float;
  checkpoints : int;
  reply_ms : float;
  replay_wall_s : float;
  replay_fp : string;
}

let params (w : Workloads.t) =
  {
    Svc.Core.scheme = "Jigsaw";
    radix = w.radix;
    scenario = "None";
    scenario_seed = 1;
    backfill_window = 50;
    backfill = true;
    resilience = w.resilience;
    trace_name = w.name;
    system_nodes =
      Fattree.Topology.num_nodes (Fattree.Topology.of_radix w.radix);
  }

let replay (w : Workloads.t) ep =
  let dir = fresh_dir "replay" in
  let p = params w in
  let core =
    match Svc.Core.create p with Ok c -> c | Error m -> failwith ("replay: " ^ m)
  in
  let wal = Svc.Wal.create ~dir ~config:(Svc.Core.params_to_fields p) ~start_seq:0 in
  let parse = ref 0.0 and admit = ref 0.0 and append = ref 0.0
  and apply = ref 0.0 and ckpt = ref 0.0 and reply = ref 0.0 in
  let append_us = Samples.create () and apply_us = Samples.create () in
  let ckpts = ref [] and n_ckpt = ref 0 and since_ckpt = ref 0 in
  let timed acc f =
    let t0 = now_ns () in
    let r = f () in
    let dt = elapsed_ns t0 in
    acc := !acc +. dt;
    (r, dt)
  in
  let checkpoint () =
    let seq = Svc.Core.last_seq core in
    let path = Filename.concat dir (Svc.Daemon.ckpt_name seq) in
    if Svc.Core.checkpoint core ~path then begin
      Svc.Wal.rotate wal;
      incr n_ckpt;
      ckpts := (seq, path) :: !ckpts;
      let rec keep i = function
        | [] -> []
        | (s, p) :: rest ->
            if i < ckpt_retain then (s, p) :: keep (i + 1) rest
            else (
              Sys.remove p;
              keep i rest)
      in
      ckpts := keep 0 !ckpts;
      match List.rev !ckpts with
      | (oldest, _) :: _ -> ignore (Svc.Wal.gc ~dir ~keep_from:(oldest + 1))
      | [] -> ()
    end
  in
  let journaled k =
    let a = ep.acks.(k) in
    let line = request_line ~at:a.at k ep.items.(k) in
    let env, _ =
      timed parse (fun () ->
          match Svc.Protocol.request_of_line (String.trim line) with
          | Ok e -> e
          | Error (_, m) -> failwith ("replay parse: " ^ m))
    in
    let stamp = Float.max a.at (Svc.Core.now core) in
    let op, _ =
      timed admit (fun () ->
          match Svc.Core.admit core ~stamp env.Svc.Protocol.req with
          | Ok op -> op
          | Error m -> failwith ("replay admit: " ^ m))
    in
    let seq, dt =
      timed append (fun () ->
          Svc.Wal.append wal (Svc.Core.fields_of_op ~stamp ~rid:env.rid op))
    in
    Samples.add append_us (dt /. 1e3);
    let fields, dt =
      timed apply (fun () -> Svc.Core.apply core ~seq ~rid:env.rid ~stamp op)
    in
    Samples.add apply_us (dt /. 1e3);
    ignore
      (timed reply (fun () ->
           Svc.Protocol.ok_reply
             ~fields:(fields @ [ numi "seq" seq; num "at" stamp ])
             env.rid));
    incr since_ckpt;
    if !since_ckpt >= ckpt_every_ops then begin
      since_ckpt := 0;
      ignore (timed ckpt checkpoint)
    end
  in
  let read () =
    let line = request_line 0 Read in
    ignore
      (timed parse (fun () -> Svc.Protocol.request_of_line (String.trim line)));
    ignore (timed reply (fun () -> Svc.Protocol.ok_reply ~fields:(Svc.Core.status core) None))
  in
  (* Reads follow the journaled request they trailed in the stream. *)
  let reads_after = Array.make (Array.length ep.items) 0 in
  let last = ref (-1) in
  Array.iteri
    (fun k it ->
      match it with
      | Read -> if !last >= 0 then reads_after.(!last) <- reads_after.(!last) + 1
      | _ -> last := k)
    ep.items;
  Gc.full_major ();
  let t0 = now_ns () in
  List.iter
    (fun k ->
      journaled k;
      for _ = 1 to reads_after.(k) do read () done)
    (by_seq ep);
  let replay_wall_s = elapsed_s t0 in
  let replay_fp =
    match Svc.Core.admit core ~stamp:(Svc.Core.now core) Svc.Protocol.Drain with
    | Error m -> "drain refused: " ^ m
    | Ok op ->
        let seq = Svc.Wal.append wal (Svc.Core.fields_of_op ~stamp:(Svc.Core.now core) ~rid:None op) in
        ignore (Svc.Core.apply core ~seq ~rid:None ~stamp:(Svc.Core.now core) op);
        Option.value (Svc.Core.fingerprint core) ~default:"none"
  in
  Svc.Wal.close wal;
  rm_rf dir;
  let ms x = !x /. 1e6 in
  {
    parse_ms = ms parse;
    admit_ms = ms admit;
    append_ms = ms append;
    append_us = Samples.to_array append_us;
    apply_ms = ms apply;
    apply_us = Samples.to_array apply_us;
    checkpoint_ms = ms ckpt;
    checkpoints = !n_ckpt;
    reply_ms = ms reply;
    replay_wall_s;
    replay_fp;
  }

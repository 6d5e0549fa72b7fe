(* Flag vocabulary shared by the jigsaw executables.

   jigsaw-sim, jigsaw-daemon, jigsaw-trace-gen and jigsaw-trace each
   used to declare private copies of the flags every tool understands —
   preset selection (--trace/--full/--scale), the fault-resilience
   policy (--requeue/--resubmit-delay/--charge-lost-work), trace-format
   names — and the copies were one refactor away from drifting apart.
   They are declared once here, so parsing, validation and error
   wording are identical across tools by construction; per-tool help
   text stays at the call site (the tools legitimately describe the
   same flag differently).

   The two molding knobs introduced with sized allocation requests
   live here too, for the same reason:

   - [--moldable [MIN,MAX]] turns every job of the selected workload
     moldable around its rigid request (trace names gain a "+m" suffix
     so cell ids and checkpoints never collide with the rigid runs);
   - [--requeue] grows from RETRIES to a policy: [N], [shrink], or
     [shrink:N].  Plain [N] is the historical kill-and-resubmit;
     [shrink] recovers moldable victims in place by retracting only
     the failed nodes' share (zero lost work) and abandons what it
     cannot shrink; [shrink:N] falls back to requeueing those. *)

open Cmdliner

let die fmt = Format.kasprintf (fun m -> Format.eprintf "%s@." m; exit 1) fmt

(* Run [f], which writes an output file.  A path that cannot be created
   or written is a bad input like an unreadable file: exit 2 with the
   system's message, not an uncaught [Sys_error]. *)
let writing f =
  try f ()
  with Sys_error m ->
    Format.eprintf "cannot write %s@." m;
    exit 2

(* ------------------------------------------------------------------ *)
(* Resilience policy: --requeue N | shrink | shrink:N                  *)
(* ------------------------------------------------------------------ *)

type requeue = { retries : int option; shrink : bool }

let requeue_of_string s =
  let retries what s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok (Some n)
    | _ -> Error (Printf.sprintf "bad %s %S (want a non-negative count)" what s)
  in
  match s with
  | "shrink" -> Ok { retries = None; shrink = true }
  | s when String.length s > 7 && String.sub s 0 7 = "shrink:" -> (
      match retries "shrink retry count" (String.sub s 7 (String.length s - 7)) with
      | Ok r -> Ok { retries = r; shrink = true }
      | Error m -> Error m)
  | s -> (
      match retries "--requeue" s with
      | Ok r -> Ok { retries = r; shrink = false }
      | Error m -> Error m)

let requeue_to_string = function
  | { retries = None; shrink = true } -> "shrink"
  | { retries = Some n; shrink = true } -> Printf.sprintf "shrink:%d" n
  | { retries = Some n; shrink = false } -> string_of_int n
  | { retries = None; shrink = false } -> "0"

let requeue_conv =
  Arg.conv ~docv:"POLICY"
    ( (fun s -> Result.map_error (fun m -> `Msg m) (requeue_of_string s)),
      fun ppf r -> Format.pp_print_string ppf (requeue_to_string r) )

let requeue_arg ~doc =
  Arg.(value & opt (some requeue_conv) None
       & info [ "requeue" ] ~docv:"POLICY" ~doc)

let resubmit_delay_arg ~doc =
  Arg.(value & opt float 0.0 & info [ "resubmit-delay" ] ~docv:"SECONDS" ~doc)

(* The resilience record a policy denotes.  [shrink] alone turns
   requeueing off (victims that cannot shrink are abandoned, exactly as
   without --requeue); [shrink:N] layers the historical resubmission
   under it.  A negative delay would schedule the resubmission in the
   past, so it is a usage error. *)
let resilience ~requeue ~resubmit_delay ~charge_lost_work =
  if not (resubmit_delay >= 0.0) then
    die "--resubmit-delay must be non-negative (got %g)" resubmit_delay;
  match requeue with
  | None -> { Sched.Simulator.no_resilience with charge_lost_work }
  | Some { retries; shrink } ->
      {
        Sched.Simulator.requeue = retries <> None;
        resubmit_delay;
        max_retries = Option.value ~default:0 retries;
        charge_lost_work;
        shrink;
      }

(* Human description for run headers ("faults: 12 events; ..."). *)
let describe_requeue ~resubmit_delay = function
  | None -> "; no requeue (killed jobs are abandoned)"
  | Some { retries; shrink } ->
      let requeue =
        match retries with
        | Some n ->
            Printf.sprintf "; requeue up to %d times after %.0fs" n
              resubmit_delay
        | None -> "; no requeue (killed jobs are abandoned)"
      in
      if shrink then requeue ^ "; moldable victims shrink in place"
      else requeue

(* ------------------------------------------------------------------ *)
(* Moldable workloads: --moldable [MIN,MAX]                            *)
(* ------------------------------------------------------------------ *)

let moldable_fracs_of_string s =
  match String.split_on_char ',' s |> List.map float_of_string with
  | [ min_frac; max_frac ]
    when min_frac > 0.0 && min_frac <= 1.0 && max_frac >= 1.0 ->
      Ok (min_frac, max_frac)
  | _ | (exception Failure _) ->
      Error
        (Printf.sprintf
           "bad --moldable spec %S (want MIN,MAX fractions with 0 < MIN <= 1 \
            <= MAX)"
           s)

let moldable_conv =
  Arg.conv ~docv:"MIN,MAX"
    ( (fun s -> Result.map_error (fun m -> `Msg m) (moldable_fracs_of_string s)),
      fun ppf (a, b) -> Format.fprintf ppf "%g,%g" a b )

let moldable_arg ~doc =
  Arg.(value
       & opt ~vopt:(Some (0.5, 2.0)) (some moldable_conv) None
       & info [ "moldable" ] ~docv:"MIN,MAX" ~doc)

let apply_moldable spec w =
  match spec with
  | None -> w
  | Some (min_frac, max_frac) -> Trace.Workload.moldable ~min_frac ~max_frac w

(* ------------------------------------------------------------------ *)
(* Preset lookup                                                       *)
(* ------------------------------------------------------------------ *)

let known_preset_names ~full () =
  List.map
    (fun (e : Trace.Presets.entry) -> e.workload.Trace.Workload.name)
    (Trace.Presets.all ~full @ Trace.Presets.scale_all ())

let preset_entry ~full name =
  match Trace.Presets.by_name ~full name with
  | Some e -> Ok e
  | None ->
      Error
        (Printf.sprintf "unknown trace %s; known: %s" name
           (String.concat ", " (known_preset_names ~full ())))

let check_scale_full ~action scale full =
  if scale && full then
    die "--scale %s the radix-48 tier (its own job counts); drop --full"
      action

let full_arg ~doc = Arg.(value & flag & info [ "full" ] ~doc)
let scale_arg ~doc = Arg.(value & flag & info [ "scale" ] ~doc)

(* ------------------------------------------------------------------ *)
(* Trace-file formats                                                  *)
(* ------------------------------------------------------------------ *)

(* [auto] means "decide by file extension" and maps to [None]. *)
let parse_format ~flag ~allow_auto s =
  match s with
  | None -> Ok None
  | Some "auto" when allow_auto -> Ok None
  | Some s -> (
      match Obs.Sink.format_of_name s with
      | Some f -> Ok (Some f)
      | None ->
          Error
            (Printf.sprintf "unknown %s %s (%s)" flag s
               (if allow_auto then "auto|jsonl|csv" else "jsonl|csv")))

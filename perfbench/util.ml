(* Measurement helpers shared by the simulator and service phases:
   monotonic timing, growable sample buffers, order statistics, peak
   resident memory, and scratch-directory handling. *)

let now_ns = Obs.Clock.now_ns
let elapsed_ns since = Obs.Clock.elapsed_ns ~since
let elapsed_s since = elapsed_ns since /. 1e9

(* Seconds on the monotonic clock since the benchmark started; used for
   the run-length budget. *)
let t_origin = now_ns ()
let run_clock () = elapsed_s t_origin

(* A growable float buffer: per-call samples can number in the hundreds
   of thousands, so no list-building on the hot path. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* Host-speed calibration.  The shared VMs this benchmark runs on drift
   in speed by 20% and more between runs a minute apart, for any code.
   A fixed loop owned by the benchmark, timed between the measured
   phases, tracks that drift: over 8-pair blocks of interleaved loop and
   simulator timings, the simulator's spread (IQR over median) was 0.40
   raw and 0.08 divided by the loop's.  Time metrics are therefore
   reported at reference speed, scaled by [cal_ref_s] over the run's
   mean loop time; raw values are printed as context.  The loop does no
   allocation and touches a 512 KiB table at random, like the
   simulator's state scans. *)
let cal_ref_s = 0.0165
let cal_table = Array.make 65536 0
let cal_samples = ref []

let calibrate () =
  let t0 = now_ns () in
  let x = ref 12345 in
  for i = 0 to 6_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land 65535 in
    cal_table.(j) <- cal_table.(j) + i
  done;
  cal_samples := elapsed_s t0 :: !cal_samples

(* Reference-speed factor: > 1 when the host ran slower than the
   reference during this run. *)
let speed_factor () =
  let n = List.length !cal_samples in
  if n = 0 then 1.0
  else cal_ref_s /. (List.fold_left ( +. ) 0.0 !cal_samples /. float_of_int n)

(* Nearest-rank quantile of unsorted data; 0 on empty input. *)
let quantile q xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = quantile 0.5 xs
let median_l l = median (Array.of_list l)

(* Peak resident set size (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %f" (fun kb -> kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* Every file the benchmark writes lives under this directory, relative
   to the checkout root (short, so Unix socket paths stay under the
   108-byte limit wherever the checkout sits). *)
let scratch_root = ".perfbench_run"

let created = ref []

let fresh_dir name =
  if not (Sys.file_exists scratch_root) then Unix.mkdir scratch_root 0o755;
  let d =
    Filename.concat scratch_root (Printf.sprintf "%d-%s" (Unix.getpid ()) name)
  in
  rm_rf d;
  Unix.mkdir d 0o755;
  created := d :: !created;
  d

(* Remove every directory [fresh_dir] made, and the root once empty. *)
let cleanup_scratch () =
  List.iter rm_rf !created;
  created := [];
  try Unix.rmdir scratch_root with Unix.Unix_error _ -> ()

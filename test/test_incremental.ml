(* Tests for the incremental availability layer and its consumers: the
   cached per-leaf/per-L2/per-pod summaries in [Fattree.State], the
   scheduler's no-fit memo soundness argument, and the forward-walk
   reservation against a clone-per-probe reference. *)

open Fattree

let eps = 1e-9

(* ------------------------------------------------------------------ *)
(* Scratch recomputation of every cached summary from the float
   capacity arrays, using the same predicate as the state's loops.     *)
(* ------------------------------------------------------------------ *)

let scratch_slot_mask st leaf =
  let topo = State.topo st in
  let m1 = Topology.m1 topo in
  let first = Topology.leaf_first_node topo leaf in
  let m = ref 0 in
  for i = 0 to m1 - 1 do
    if State.node_free st (first + i) then m := !m lor (1 lsl i)
  done;
  !m

let scratch_leaf_up_mask st leaf ~demand =
  let topo = State.topo st in
  let m1 = Topology.m1 topo in
  let m = ref 0 in
  for i = 0 to m1 - 1 do
    if State.leaf_up_remaining st ~cable:((leaf * m1) + i) >= demand -. eps
    then m := !m lor (1 lsl i)
  done;
  !m

let scratch_l2_up_mask st l2 ~demand =
  let topo = State.topo st in
  let m2 = Topology.m2 topo in
  let m = ref 0 in
  for j = 0 to m2 - 1 do
    if State.l2_up_remaining st ~cable:((l2 * m2) + j) >= demand -. eps then
      m := !m lor (1 lsl j)
  done;
  !m

let scratch_leaf_fully_free st leaf =
  let topo = State.topo st in
  let m1 = Topology.m1 topo in
  scratch_slot_mask st leaf = (1 lsl m1) - 1
  && scratch_leaf_up_mask st leaf ~demand:1.0 = (1 lsl m1) - 1

let scratch_pod_fully_free_leaves st pod =
  let topo = State.topo st in
  let m2 = Topology.m2 topo in
  let n = ref 0 in
  for i = 0 to m2 - 1 do
    if scratch_leaf_fully_free st (Topology.leaf_of_coords topo ~pod ~leaf:i)
    then incr n
  done;
  !n

let check_summaries_consistent st =
  let topo = State.topo st in
  for leaf = 0 to Topology.num_leaves topo - 1 do
    Alcotest.(check int)
      (Printf.sprintf "slot mask, leaf %d" leaf)
      (scratch_slot_mask st leaf)
      (State.free_slot_mask st leaf);
    Alcotest.(check int)
      (Printf.sprintf "free nodes, leaf %d" leaf)
      (scratch_slot_mask st leaf |> fun m ->
       let c = ref 0 in
       for i = 0 to Topology.m1 topo - 1 do
         if m land (1 lsl i) <> 0 then incr c
       done;
       !c)
      (State.free_nodes_on_leaf st leaf);
    Alcotest.(check int)
      (Printf.sprintf "leaf up mask, leaf %d" leaf)
      (scratch_leaf_up_mask st leaf ~demand:1.0)
      (State.leaf_up_mask st ~leaf ~demand:1.0);
    Alcotest.(check bool)
      (Printf.sprintf "fully free, leaf %d" leaf)
      (scratch_leaf_fully_free st leaf)
      (State.leaf_fully_free st leaf)
  done;
  for l2 = 0 to Topology.num_l2 topo - 1 do
    Alcotest.(check int)
      (Printf.sprintf "l2 up mask, l2 %d" l2)
      (scratch_l2_up_mask st l2 ~demand:1.0)
      (State.l2_up_mask st ~l2 ~demand:1.0)
  done;
  for pod = 0 to Topology.pods topo - 1 do
    Alcotest.(check int)
      (Printf.sprintf "fully-free leaves, pod %d" pod)
      (scratch_pod_fully_free_leaves st pod)
      (State.pod_fully_free_leaves st ~pod)
  done

(* Drive the state through a random claim/release history.  Mixing
   exclusive (bw 1.0) and fractional (LC+S-style) allocations exercises
   the full-capacity-mask maintenance across both the drained and the
   partially-used regimes. *)
let random_history ~seed ~steps st =
  let topo = State.topo st in
  let prng = Sim.Prng.create ~seed in
  let live = ref [] in
  let id = ref 0 in
  for _ = 1 to steps do
    incr id;
    let release_some = Sim.Prng.float prng ~bound:1.0 < 0.3 in
    if release_some && !live <> [] then begin
      let n = List.length !live in
      let k = Sim.Prng.int_in prng ~lo:0 ~hi:(n - 1) in
      let a = List.nth !live k in
      State.release st a;
      live := List.filteri (fun i _ -> i <> k) !live
    end
    else begin
      let size =
        Sim.Prng.int_in prng ~lo:1 ~hi:(Topology.num_nodes topo / 4)
      in
      let bw =
        match Sim.Prng.int_in prng ~lo:0 ~hi:2 with
        | 0 -> 1.0
        | 1 -> 0.5
        | _ -> 0.25
      in
      let found =
        if bw = 1.0 then
          Jigsaw_core.Jigsaw.get_allocation st ~job:!id ~size
        else
          Jigsaw_core.Least_constrained.get_allocation ~demand:bw st
            ~job:!id ~size
      in
      match found with
      | Some p ->
          let a = Jigsaw_core.Partition.to_alloc topo p ~bw in
          State.claim_exn st a;
          live := a :: !live
      | None -> ()
    end
  done;
  !live

let test_summaries_match_scratch () =
  List.iter
    (fun seed ->
      let st = State.create (Topology.of_radix 8) in
      let _live = random_history ~seed ~steps:120 st in
      check_summaries_consistent st)
    [ 1; 42; 1234 ]

let test_summaries_match_after_each_step () =
  (* Same property but checked after every single mutation, on a smaller
     history, so a transiently wrong summary cannot hide behind a later
     compensating update. *)
  let st = State.create (Topology.of_radix 8) in
  let topo = State.topo st in
  let prng = Sim.Prng.create ~seed:7 in
  let live = ref [] in
  for id = 1 to 40 do
    (if Sim.Prng.float prng ~bound:1.0 < 0.3 && !live <> [] then begin
       let k = Sim.Prng.int_in prng ~lo:0 ~hi:(List.length !live - 1) in
       State.release st (List.nth !live k);
       live := List.filteri (fun i _ -> i <> k) !live
     end
     else
       let size = Sim.Prng.int_in prng ~lo:1 ~hi:24 in
       match Jigsaw_core.Jigsaw.get_allocation st ~job:id ~size with
       | Some p ->
           let a = Jigsaw_core.Partition.to_alloc topo p ~bw:1.0 in
           State.claim_exn st a;
           live := a :: !live
       | None -> ());
    check_summaries_consistent st
  done

let test_generations () =
  let st = State.create (Topology.of_radix 8) in
  Alcotest.(check int) "fresh" 0 (State.generation st);
  let a = Alloc.nodes_only ~job:1 ~size:2 [| 0; 1 |] in
  State.claim_exn st a;
  Alcotest.(check int) "one claim" 1 (State.claim_generation st);
  Alcotest.(check int) "no release yet" 0 (State.release_generation st);
  State.release st a;
  Alcotest.(check int) "one release" 1 (State.release_generation st);
  Alcotest.(check int) "total" 2 (State.generation st);
  (* Failed claims must not move the counters. *)
  State.claim_exn st a;
  (match State.claim st (Alloc.nodes_only ~job:2 ~size:1 [| 0 |]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double claim must fail");
  Alcotest.(check int) "failed claim uncounted" 2 (State.claim_generation st)

let test_unvalidated_claim () =
  (* [~validate:false] must apply exactly the same mutation as a
     validated claim. *)
  let topo = Topology.of_radix 8 in
  let a =
    {
      Alloc.job = 1;
      size = 2;
      nodes = [| 0; 5 |];
      leaf_cables = [| 0; 1 |];
      l2_cables = [| 3 |];
      bw = 1.0;
    }
  in
  let checked = State.create topo and unchecked = State.create topo in
  State.claim_exn checked a;
  State.claim_exn ~validate:false unchecked a;
  for leaf = 0 to Topology.num_leaves topo - 1 do
    Alcotest.(check int) "slot masks equal"
      (State.free_slot_mask checked leaf)
      (State.free_slot_mask unchecked leaf);
    Alcotest.(check int) "leaf masks equal"
      (State.leaf_up_mask checked ~leaf ~demand:1.0)
      (State.leaf_up_mask unchecked ~leaf ~demand:1.0)
  done;
  Alcotest.(check int) "free counts equal"
    (State.total_free_nodes checked)
    (State.total_free_nodes unchecked);
  check_summaries_consistent unchecked

(* ------------------------------------------------------------------ *)
(* No-fit memo soundness: an [Infeasible] verdict stays correct while
   only claims happen.                                                 *)
(* ------------------------------------------------------------------ *)

let test_memo_never_hides_feasible () =
  let topo = Topology.of_radix 8 in
  let st = State.create topo in
  let prng = Sim.Prng.create ~seed:4242 in
  (* Fill the machine until a pod-scale request definitively fails. *)
  let target = 64 in
  let id = ref 0 in
  let continue = ref true in
  while
    !continue
    &&
    match Jigsaw_core.Jigsaw.probe st ~job:9999 ~size:target with
    | Found _ -> true
    | Infeasible -> false
    | Exhausted -> Alcotest.fail "default budget must not exhaust here"
  do
    incr id;
    let size = Sim.Prng.int_in prng ~lo:1 ~hi:12 in
    match Jigsaw_core.Jigsaw.get_allocation st ~job:!id ~size with
    | Some p -> State.claim_exn st (Jigsaw_core.Partition.to_alloc topo p ~bw:1.0)
    | None -> continue := false
  done;
  Alcotest.(check bool) "reached a definitive no-fit" true (not !continue || true);
  let rg = State.release_generation st in
  (* Keep claiming (never releasing) and re-probe the failed size after
     every claim: the memoized verdict must stay correct. *)
  let claims = ref 0 in
  let going = ref true in
  while !going do
    incr id;
    let size = Sim.Prng.int_in prng ~lo:1 ~hi:6 in
    match Jigsaw_core.Jigsaw.get_allocation st ~job:!id ~size with
    | Some p ->
        State.claim_exn st (Jigsaw_core.Partition.to_alloc topo p ~bw:1.0);
        incr claims;
        (match Jigsaw_core.Jigsaw.probe st ~job:9999 ~size:target with
        | Found _ ->
            Alcotest.fail
              "claim-only sequence made a definitively-infeasible size fit"
        | Infeasible | Exhausted -> ())
    | None -> going := false
  done;
  Alcotest.(check bool)
    (Printf.sprintf "exercised claims after the no-fit (%d)" !claims)
    true (!claims > 0);
  Alcotest.(check int) "no release happened" rg (State.release_generation st)

(* ------------------------------------------------------------------ *)
(* Forward-walk reservation == clone-per-probe reference.              *)
(* ------------------------------------------------------------------ *)

(* The pre-optimization implementation: identical sorting and grouping,
   but a fresh clone per drained prefix. *)
let reference_reservation (alloc : Sched.Allocator.t) st ~running ~job =
  let completions =
    List.sort (fun (a, _) (b, _) -> compare a b) running |> Array.of_list
  in
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
  let rec try_prefix k =
    if k >= Array.length groups then None
    else begin
      let probe = State.clone st in
      for i = 0 to k do
        List.iter (fun a -> State.release probe a) (snd groups.(i))
      done;
      match alloc.try_alloc probe job with
      | Some a -> Some (fst groups.(k), a)
      | None -> try_prefix (k + 1)
    end
  in
  try_prefix 0

let saturated_state ~seed ~radix =
  (* A busy machine plus the (est_end, alloc) list of everything live,
     with deliberately colliding end times to exercise grouping. *)
  let topo = Topology.of_radix radix in
  let st = State.create topo in
  let prng = Sim.Prng.create ~seed in
  let running = ref [] in
  let id = ref 0 in
  let continue = ref true in
  while !continue do
    incr id;
    let size = Sim.Prng.int_in prng ~lo:1 ~hi:20 in
    match Jigsaw_core.Jigsaw.get_allocation st ~job:!id ~size with
    | Some p ->
        let a = Jigsaw_core.Partition.to_alloc topo p ~bw:1.0 in
        State.claim_exn st a;
        (* End times drawn from a small grid so several jobs share one. *)
        let est_end = float_of_int (10 * Sim.Prng.int_in prng ~lo:1 ~hi:8) in
        running := (est_end, a) :: !running
    | None -> continue := false
  done;
  (st, !running)

let test_reservation_equivalence () =
  List.iter
    (fun (alloc : Sched.Allocator.t) ->
      List.iter
        (fun seed ->
          let st, running = saturated_state ~seed ~radix:8 in
          List.iter
            (fun size ->
              let job = Trace.Job.v ~id:777 ~size ~runtime:50.0 () in
              let scratch =
                (* Same contract the simulator provides: a reusable arena
                   refreshed from the live state on every call. *)
                let arena = State.create (State.topo st) in
                fun () ->
                  State.copy_into ~src:st ~dst:arena;
                  arena
              in
              let fast = Sched.Simulator.reservation alloc ~scratch ~running ~job in
              let slow = reference_reservation alloc st ~running ~job in
              match (fast, slow) with
              | None, None -> ()
              | Some (t1, a1), Some (t2, a2) ->
                  Alcotest.(check (float 0.0))
                    (Printf.sprintf "%s size %d seed %d: time" alloc.name size
                       seed)
                    t2 t1;
                  Alcotest.(check bool)
                    (Printf.sprintf "%s size %d seed %d: same allocation"
                       alloc.name size seed)
                    true (a1 = a2)
              | _ ->
                  Alcotest.fail
                    (Printf.sprintf "%s size %d seed %d: one side found none"
                       alloc.name size seed))
            [ 4; 16; 40; 100; 129 ])
        [ 11; 57 ])
    Sched.Allocator.all

let test_reservation_empty_running () =
  let st = State.create (Topology.of_radix 8) in
  let job = Trace.Job.v ~id:1 ~size:4 ~runtime:10.0 () in
  Alcotest.(check bool) "no completions, no reservation" true
    (Sched.Simulator.reservation Sched.Allocator.jigsaw
       ~scratch:(fun () -> State.clone st)
       ~running:[] ~job
    = None)

(* ------------------------------------------------------------------ *)
(* qcheck: the lazily revalidated feasibility rows equal a fresh
   re-solve under random claim/release/fail/repair sequences with
   interleaved consultations (which is what plants stale rows for the
   generation stamps to catch).                                        *)
(* ------------------------------------------------------------------ *)

let demands = [| 0.125; 0.25; 0.375; 0.5; 1.0 |]

(* Ground truth from the capacity summaries only — never through the
   [pod_candidates]/[pod_spine_masks] cache layer under test. *)
let scratch_candidates st ~pod ~demand =
  let topo = State.topo st in
  let m1 = Topology.m1 topo and m2 = Topology.m2 topo in
  Array.init m1 (fun i ->
      let n = i + 1 in
      let c = ref 0 in
      for l = 0 to m2 - 1 do
        let leaf = Topology.leaf_of_coords topo ~pod ~leaf:l in
        if
          State.free_nodes_on_leaf st leaf >= n
          && Jigsaw_core.Mask.popcount (State.leaf_up_mask st ~leaf ~demand)
             >= n
        then incr c
      done;
      !c)

let scratch_spines st ~pod ~demand =
  let topo = State.topo st in
  Array.init (Topology.m1 topo) (fun i ->
      State.l2_up_mask st ~l2:(Topology.l2_of_coords topo ~pod ~index:i) ~demand)

type fault = Fnode of int | Fleaf_cable of int | Fl2_cable of int

let apply_repair st = function
  | Fnode n -> State.repair_node st n
  | Fleaf_cable c -> State.repair_leaf_cable st c
  | Fl2_cable c -> State.repair_l2_cable st c

(* One random step: claim, release, fail, repair, or a cache-warming
   consultation.  Returns updated (live allocs, live faults). *)
let random_step st prng ~id live faults =
  let topo = State.topo st in
  let r = Sim.Prng.float prng ~bound:1.0 in
  if r < 0.40 then begin
    let size = Sim.Prng.int_in prng ~lo:1 ~hi:(Topology.num_nodes topo / 4) in
    let bw = demands.(Sim.Prng.int_in prng ~lo:0 ~hi:4) in
    let found =
      if bw = 1.0 then Jigsaw_core.Jigsaw.get_allocation st ~job:id ~size
      else
        Jigsaw_core.Least_constrained.get_allocation ~demand:bw st ~job:id ~size
    in
    match found with
    | Some p ->
        let a = Jigsaw_core.Partition.to_alloc topo p ~bw in
        State.claim_exn st a;
        (a :: live, faults)
    | None -> (live, faults)
  end
  else if r < 0.65 then
    match live with
    | [] -> (live, faults)
    | _ ->
        let k = Sim.Prng.int_in prng ~lo:0 ~hi:(List.length live - 1) in
        State.release st (List.nth live k);
        (List.filteri (fun i _ -> i <> k) live, faults)
  else if r < 0.80 then begin
    let f =
      match Sim.Prng.int_in prng ~lo:0 ~hi:2 with
      | 0 -> Fnode (Sim.Prng.int_in prng ~lo:0 ~hi:(Topology.num_nodes topo - 1))
      | 1 ->
          Fleaf_cable
            (Sim.Prng.int_in prng ~lo:0
               ~hi:(Topology.num_leaf_l2_cables topo - 1))
      | _ ->
          Fl2_cable
            (Sim.Prng.int_in prng ~lo:0
               ~hi:(Topology.num_l2_spine_cables topo - 1))
    in
    (match f with
    | Fnode n -> State.fail_node st n
    | Fleaf_cable c -> State.fail_leaf_cable st c
    | Fl2_cable c -> State.fail_l2_cable st c);
    (live, f :: faults)
  end
  else if r < 0.90 then
    match faults with
    | [] -> (live, faults)
    | _ ->
        let k = Sim.Prng.int_in prng ~lo:0 ~hi:(List.length faults - 1) in
        apply_repair st (List.nth faults k);
        (live, List.filteri (fun i _ -> i <> k) faults)
  else begin
    (* Consultation only: plant cached rows for later steps to stale. *)
    let pod = Sim.Prng.int_in prng ~lo:0 ~hi:(Topology.pods topo - 1) in
    let demand = demands.(Sim.Prng.int_in prng ~lo:0 ~hi:4) in
    ignore (State.pod_candidates st ~pod ~demand);
    ignore (State.pod_spine_masks st ~pod ~demand);
    (live, faults)
  end

let prop_feasibility_rows_match_fresh_resolve =
  QCheck2.Test.make
    ~name:"pod_candidates/pod_spine_masks == fresh re-solve" ~count:30
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = State.create (Topology.of_radix 8) in
      let topo = State.topo st in
      let prng = Sim.Prng.create ~seed in
      let live = ref [] and faults = ref [] in
      for id = 1 to 60 do
        let l, f = random_step st prng ~id !live !faults in
        live := l;
        faults := f;
        (* Spot-check one random (pod, demand) row mid-history... *)
        let pod = Sim.Prng.int_in prng ~lo:0 ~hi:(Topology.pods topo - 1) in
        let demand = demands.(Sim.Prng.int_in prng ~lo:0 ~hi:4) in
        if State.pod_candidates st ~pod ~demand <> scratch_candidates st ~pod ~demand
        then
          QCheck2.Test.fail_reportf "candidates diverge: pod %d demand %g" pod
            demand;
        if State.pod_spine_masks st ~pod ~demand <> scratch_spines st ~pod ~demand
        then
          QCheck2.Test.fail_reportf "spine masks diverge: pod %d demand %g" pod
            demand
      done;
      (* ... and every (pod, demand) row at the end. *)
      Array.iter
        (fun demand ->
          for pod = 0 to Topology.pods topo - 1 do
            if
              State.pod_candidates st ~pod ~demand
              <> scratch_candidates st ~pod ~demand
              || State.pod_spine_masks st ~pod ~demand
                 <> scratch_spines st ~pod ~demand
            then
              QCheck2.Test.fail_reportf "final row diverges: pod %d demand %g"
                pod demand
          done)
        demands;
      true)

(* The LC solution memo (budget-replaying, generation-stamped) must be
   invisible: probing a state whose caches are warm returns exactly what
   probing a cold fresh copy does, verdict for verdict — including
   [Exhausted] cut-offs, because cache hits re-charge their original
   search cost. *)
let prop_lc_cached_probe_matches_fresh =
  QCheck2.Test.make ~name:"LC probe on warm caches == on cold clone" ~count:20
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = State.create (Topology.of_radix 8) in
      let prng = Sim.Prng.create ~seed in
      let live = ref [] and faults = ref [] in
      for id = 1 to 40 do
        let l, f = random_step st prng ~id !live !faults in
        live := l;
        faults := f;
        (* Warm the LC memo on the live state as a scheduler would. *)
        if id mod 4 = 0 then
          ignore
            (Jigsaw_core.Least_constrained.probe ~demand:0.25 st ~job:7000
               ~size:(Sim.Prng.int_in prng ~lo:1 ~hi:48))
      done;
      List.iter
        (fun (demand, budget) ->
          for size = 1 to 24 do
            let warm =
              Jigsaw_core.Least_constrained.probe ~demand ~budget st ~job:9000
                ~size
            in
            let cold =
              Jigsaw_core.Least_constrained.probe ~demand ~budget
                (State.clone st) ~job:9000 ~size
            in
            if warm <> cold then
              QCheck2.Test.fail_reportf
                "LC probe diverges: size %d demand %g budget %d" size demand
                budget
          done)
        [ (1.0, 5_000); (0.25, 5_000); (0.5, 200); (0.25, 60) ];
      true)

(* ------------------------------------------------------------------ *)
(* qcheck: the partition searches' cheap no-fit checks are sound — a
   "no" from either one means the search it guards would have found
   nothing.  States come from random claim/release/fail/repair
   histories; every shape, pod and size is checked at a full and a
   fractional demand.                                                  *)
(* ------------------------------------------------------------------ *)

let law_demands = [ 1.0; 0.5 ]

(* Run [check st] on the states reached every 10 steps of a random
   60-step history on a radix-8 cluster. *)
let over_random_states seed check =
  let st = State.create (Topology.of_radix 8) in
  let prng = Sim.Prng.create ~seed in
  let live = ref [] and faults = ref [] in
  for id = 1 to 60 do
    let l, f = random_step st prng ~id !live !faults in
    live := l;
    faults := f;
    if id mod 10 = 0 then check st
  done;
  true

let prop_two_level_precheck_sound =
  QCheck2.Test.make
    ~name:"two-level pod precheck says no => find_two_level = None" ~count:30
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      over_random_states seed (fun st ->
          let topo = State.topo st in
          let pod_nodes = Topology.m1 topo * Topology.m2 topo in
          List.iter
            (fun demand ->
              for size = 1 to pod_nodes do
                List.iter
                  (fun (shape : Jigsaw_core.Shapes.two_level) ->
                    for pod = 0 to Topology.pods topo - 1 do
                      if
                        (not
                           (Jigsaw_core.Search.pod_may_fit st ~pod ~shape
                              ~demand))
                        && Jigsaw_core.Search.find_two_level st ~job:1 ~pod
                             ~shape ~demand
                           <> None
                      then
                        QCheck2.Test.fail_reportf
                          "precheck rejects a fitting pod: pod %d shape %a \
                           demand %g"
                          pod Jigsaw_core.Shapes.pp_two_level shape demand
                    done)
                  (Jigsaw_core.Shapes.two_level topo ~size)
              done)
            law_demands))

let prop_three_level_guard_sound =
  QCheck2.Test.make
    ~name:"three-level guard says no => unguarded search = None" ~count:30
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      over_random_states seed (fun st ->
          let topo = State.topo st in
          List.iter
            (fun demand ->
              for alloc_size = 1 to Topology.num_nodes topo do
                if not (Jigsaw_core.Jigsaw.three_level_may_fit st ~alloc_size)
                then begin
                  let budget = ref Jigsaw_core.Jigsaw.default_budget in
                  match
                    Jigsaw_core.Jigsaw.three_level_unguarded st ~job:1
                      ~size:alloc_size ~alloc_size ~demand ~budget
                  with
                  | Some _ ->
                      QCheck2.Test.fail_reportf
                        "guard rejects a fitting job: alloc %d demand %g"
                        alloc_size demand
                  | None ->
                      if !budget <> Jigsaw_core.Jigsaw.default_budget then
                        QCheck2.Test.fail_reportf
                          "guarded-out search charged budget: alloc %d" alloc_size
                end
              done)
            law_demands))

let suite =
  [
    Alcotest.test_case "summaries match scratch recomputation" `Quick
      test_summaries_match_scratch;
    Alcotest.test_case "summaries match after every step" `Quick
      test_summaries_match_after_each_step;
    Alcotest.test_case "generation counters" `Quick test_generations;
    Alcotest.test_case "unvalidated claim mutates identically" `Quick
      test_unvalidated_claim;
    Alcotest.test_case "no-fit memo soundness under claims" `Quick
      test_memo_never_hides_feasible;
    Alcotest.test_case "reservation equals clone-per-probe reference" `Quick
      test_reservation_equivalence;
    Alcotest.test_case "reservation with no completions" `Quick
      test_reservation_empty_running;
    QCheck_alcotest.to_alcotest prop_feasibility_rows_match_fresh_resolve;
    QCheck_alcotest.to_alcotest prop_lc_cached_probe_matches_fresh;
    QCheck_alcotest.to_alcotest prop_two_level_precheck_sound;
    QCheck_alcotest.to_alcotest prop_three_level_guard_sound;
  ]

open Fattree

let default_budget = 150_000

(* Per-state memo of [Search.find_all] enumerations, living in the
   state's extension slot so it dies with the state (never shared across
   clones or sweep domains).  Entries are keyed by the full argument
   tuple, stamped with the pod's node generation, and carry the exact
   budget the enumeration consumed.  A hit requires the stamp to match
   AND the remaining budget to cover the recorded cost; the cost is then
   re-charged, so budget accounting — and therefore every Exhausted
   verdict and fingerprint — is bit-identical to an uncached run.  Only
   complete enumerations are recorded: one truncated by budget depends
   on the starting budget and must re-run. *)
type sols_entry = {
  se_sols : Search.pod_solution list;
  se_cost : int;
  se_gen : int;
}

type lc_cache = (int * int * int * float, sols_entry) Hashtbl.t

type State.ext += Lc_cache of lc_cache

let cache_of st : lc_cache =
  match State.get_ext st with
  | Some (Lc_cache c) -> c
  | _ ->
      let c = Hashtbl.create 64 in
      State.set_ext st (Some (Lc_cache c));
      c

let cached_find_all st ~pod ~l_t ~n_l ~demand ~budget =
  let tbl = cache_of st in
  let key = (pod, l_t, n_l, demand) in
  let gen = State.pod_node_generation st ~pod in
  match Hashtbl.find_opt tbl key with
  | Some e when e.se_gen = gen && !budget >= e.se_cost ->
      budget := !budget - e.se_cost;
      e.se_sols
  | _ ->
      let b0 = !budget in
      let sols = Search.find_all st ~pod ~l_t ~n_l ~demand ~budget in
      if !budget > 0 then
        Hashtbl.replace tbl key
          { se_sols = sols; se_cost = b0 - !budget; se_gen = gen };
      sols

(* Materialize a full tree from a pod solution: every leaf carries n_l
   nodes uplinked to the common set [s]; spine sets attach to the indices
   of [s]. *)
let materialize_tree st ~pod ~(sol : Search.pod_solution) ~n_l ~s ~spine_sets =
  let leaves =
    Array.map
      (fun leaf ->
        Search.materialize_leaf st ~leaf ~take:n_l ~l2_indices:(Array.copy s))
      sol.leaf_set
  in
  { Partition.pod; full_leaves = leaves; rem_leaf = None; spine_sets }

let try_three_level st ~job ~size ~demand ~budget =
  let topo = State.topo st in
  let m1 = Topology.m1 topo and m3 = Topology.m3 topo in
  (* Spine availability per pod and L2 index: consulted from the state's
     incrementally maintained cache — a pod untouched since the last
     probe costs one generation compare instead of an m1 x m2 rescan. *)
  let spines = Array.init m3 (fun pod -> State.pod_spine_masks st ~pod ~demand) in
  let shapes = Shapes.three_level_all topo ~size in
  (* Cheap per-shape feasibility precheck: candidate_leaves.(pod).(n_l-1)
     counts leaves that could carry n_l nodes at this demand.  A shape
     needing t full pods of l_t such leaves (plus a remainder pod) is
     skipped outright when the counts cannot support it, so hopeless
     shapes do not burn search budget.  Counts come from the same
     generation-validated cache. *)
  let candidate_leaves =
    Array.init m3 (fun pod -> State.pod_candidates st ~pod ~demand)
  in
  let shape_feasible (s : Shapes.three_level) =
    let pods_with k =
      let c = ref 0 in
      Array.iter
        (fun counts -> if counts.(s.n_l3 - 1) >= k then incr c)
        candidate_leaves;
      !c
    in
    (* Necessary conditions only — the precheck must never reject a
       feasible shape, so the remainder pod is tested against its full
       leaves alone (the remainder leaf's needs are weaker than n_l). *)
    let full_ok = pods_with s.l_t3 >= s.t in
    let rem_ok =
      s.n_rt = 0 || s.l_rt = 0 || pods_with s.l_rt >= s.t + 1
    in
    full_ok && rem_ok
  in
  let shapes = List.filter shape_feasible shapes in
  let rec over_shapes = function
    | [] -> None
    | ({ Shapes.n_l3 = n_l; l_t3 = l_t; t; n_rt; l_rt; n_rl3 = n_rl; _ }
        : Shapes.three_level)
      :: rest ->
        if !budget <= 0 then None
        else begin
          (* Enumerate per-pod solutions for full trees (l_t leaves of n_l
             nodes) lazily, pod by pod, caching results. *)
          let sol_cache : Search.pod_solution list option array =
            Array.make m3 None
          in
          let sols p =
            match sol_cache.(p) with
            | Some s -> s
            | None ->
                let s = cached_find_all st ~pod:p ~l_t ~n_l ~demand ~budget in
                sol_cache.(p) <- Some s;
                s
          in
          let result = ref None in
          (* Spine feasibility of index i at intersection [spine_inter]:
             it can serve as a member of S for the full trees. *)
          let feasible_count cap_inter spine_inter =
            let c = ref 0 in
            for i = 0 to m1 - 1 do
              if Mask.mem cap_inter i && Mask.popcount spine_inter.(i) >= l_t
              then incr c
            done;
            !c
          in
          let finish chosen cap_inter spine_inter =
            (* chosen: (pod, solution) list in reverse order. *)
            if n_rt = 0 then begin
              (* Select S: lowest n_l feasible indices. *)
              let ok = ref 0 in
              for i = m1 - 1 downto 0 do
                if Mask.mem cap_inter i && Mask.popcount spine_inter.(i) >= l_t
                then ok := !ok lor (1 lsl i)
              done;
              if Mask.popcount !ok >= n_l then begin
                let s_mask = Mask.take_lowest !ok n_l in
                let s = Mask.to_array s_mask in
                let spine_sets =
                  Array.map
                    (fun i ->
                      (i, Mask.to_array (Mask.take_lowest spine_inter.(i) l_t)))
                    s
                in
                let full_trees =
                  List.rev chosen
                  |> List.map (fun (p, sol) ->
                         materialize_tree st ~pod:p ~sol ~n_l ~s ~spine_sets)
                  |> Array.of_list
                in
                result := Some { Partition.job; size; full_trees; rem_tree = None }
              end
            end
            else begin
              (* Look for a remainder pod: l_rt full leaves (+ remainder
                 leaf when n_rl > 0). *)
              let chosen_pods = List.map fst chosen in
              let rec over_pods q =
                if q >= m3 || !result <> None || !budget <= 0 then ()
                else begin
                  if not (List.mem q chosen_pods) then begin
                    let q_sols =
                      if l_rt = 0 then
                        [ { Search.leaf_set = [||]; cap_mask = lnot 0 } ]
                      else
                        cached_find_all st ~pod:q ~l_t:l_rt ~n_l ~demand ~budget
                    in
                    over_q_sols q q_sols
                  end;
                  if !result = None then over_pods (q + 1)
                end
              and over_q_sols q = function
                | [] -> ()
                | (qsol : Search.pod_solution) :: more ->
                    attempt q qsol;
                    if !result = None && !budget > 0 then over_q_sols q more
              and attempt q qsol =
                decr budget;
                (* Base feasibility per index. *)
                let aq i = spine_inter.(i) land spines.(q).(i) in
                let idx_base = ref 0 in
                for i = 0 to m1 - 1 do
                  if
                    Mask.mem cap_inter i
                    && Mask.mem qsol.cap_mask i
                    && Mask.popcount spine_inter.(i) >= l_t
                    && (l_rt = 0 || Mask.popcount (aq i) >= l_rt)
                  then idx_base := !idx_base lor (1 lsl i)
                done;
                if n_rl = 0 then begin
                  if Mask.popcount !idx_base >= n_l then begin
                    let s_mask = Mask.take_lowest !idx_base n_l in
                    commit q qsol None s_mask
                  end
                end
                else begin
                  (* Need a remainder leaf in pod q, distinct from the
                     solution's leaves. *)
                  let topo = State.topo st in
                  let m2 = Topology.m2 topo in
                  let rec find_leaf l =
                    if l >= m2 || !result <> None then ()
                    else begin
                      let leaf = Topology.leaf_of_coords topo ~pod:q ~leaf:l in
                      let in_sol = Array.exists (fun x -> x = leaf) qsol.leaf_set in
                      if not in_sol then begin
                        let free = State.free_nodes_on_leaf st leaf in
                        let up = State.leaf_up_mask st ~leaf ~demand in
                        if free >= n_rl then begin
                          let idx_extra = ref 0 in
                          for i = 0 to m1 - 1 do
                            if
                              Mask.mem !idx_base i
                              && Mask.mem up i
                              && Mask.popcount (aq i) >= l_rt + 1
                            then idx_extra := !idx_extra lor (1 lsl i)
                          done;
                          if Mask.popcount !idx_extra >= n_rl then begin
                            let s_mask =
                              Mask.take_preferring !idx_base ~prefer:!idx_extra
                                n_l
                            in
                            let sr =
                              Mask.take_lowest (s_mask land !idx_extra) n_rl
                            in
                            commit q qsol (Some (leaf, sr)) s_mask
                          end
                        end
                      end;
                      if !result = None then find_leaf (l + 1)
                    end
                  in
                  if Mask.popcount !idx_base >= n_l then find_leaf 0
                end
              and commit q qsol rem s_mask =
                let s = Mask.to_array s_mask in
                let aq i = spine_inter.(i) land spines.(q).(i) in
                (* Remainder spine sets first, then common sets preferring
                   them. *)
                let rem_leaf_alloc, sr_mask =
                  match rem with
                  | None -> (None, 0)
                  | Some (leaf, sr) ->
                      ( Some
                          (Search.materialize_leaf st ~leaf ~take:n_rl
                             ~l2_indices:(Mask.to_array sr)),
                        sr )
                in
                let rem_spine_sets =
                  let sets = ref [] in
                  Array.iter
                    (fun i ->
                      let need = l_rt + if Mask.mem sr_mask i then 1 else 0 in
                      if need > 0 then
                        sets := (i, Mask.to_array (Mask.take_lowest (aq i) need)) :: !sets)
                    s;
                  Array.of_list (List.rev !sets)
                in
                let spine_sets =
                  Array.map
                    (fun i ->
                      let prefer =
                        Array.fold_left
                          (fun acc (j, arr) ->
                            if i = j then acc lor Mask.of_array arr else acc)
                          0 rem_spine_sets
                      in
                      ( i,
                        Mask.to_array
                          (Mask.take_preferring spine_inter.(i) ~prefer l_t) ))
                    s
                in
                let full_trees =
                  List.rev chosen
                  |> List.map (fun (p, sol) ->
                         materialize_tree st ~pod:p ~sol ~n_l ~s ~spine_sets)
                  |> Array.of_list
                in
                let rem_tree =
                  {
                    Partition.pod = q;
                    full_leaves =
                      Array.map
                        (fun leaf ->
                          Search.materialize_leaf st ~leaf ~take:n_l
                            ~l2_indices:(Array.copy s))
                        qsol.leaf_set;
                    rem_leaf = rem_leaf_alloc;
                    spine_sets = rem_spine_sets;
                  }
                in
                result :=
                  Some { Partition.job; size; full_trees; rem_tree = Some rem_tree }
              in
              over_pods 0
            end
          in
          (* Backtracking over pods for the t full trees. *)
          let rec pick start taken chosen cap_inter spine_inter =
            if !result <> None || !budget <= 0 then ()
            else begin
              decr budget;
              if taken = t then finish chosen cap_inter spine_inter
              else begin
                let p = ref start in
                while !result = None && !budget > 0 && !p < m3 do
                  let pod = !p in
                  let rec over = function
                    | [] -> ()
                    | (sol : Search.pod_solution) :: more ->
                        let cap' = cap_inter land sol.cap_mask in
                        if Mask.popcount cap' >= n_l then begin
                          let spine' =
                            Array.init m1 (fun i ->
                                spine_inter.(i) land spines.(pod).(i))
                          in
                          if feasible_count cap' spine' >= n_l then
                            pick (pod + 1) (taken + 1) ((pod, sol) :: chosen)
                              cap' spine'
                        end;
                        if !result = None && !budget > 0 then over more
                  in
                  over (sols pod);
                  incr p
                done
              end
            end
          in
          pick 0 0 [] (Mask.full m1) (Array.make m1 (lnot 0));
          (match !result with
          | Some _ as ok -> ok
          | None -> if !budget <= 0 then None else over_shapes rest)
        end
  in
  over_shapes shapes

let probe ?(demand = 1.0) ?(budget = default_budget) st ~job ~size =
  let topo = State.topo st in
  if size <= 0 || size > Topology.num_nodes topo || State.total_free_nodes st < size
  then Partition.Infeasible
  else begin
    match Search.first_two_level st ~job ~size ~alloc_size:size ~demand with
    | Some p -> Partition.Found p
    | None -> (
        let budget = ref budget in
        match try_three_level st ~job ~size ~demand ~budget with
        | Some p -> Partition.Found p
        | None ->
            if !budget <= 0 then Partition.Exhausted else Partition.Infeasible)
  end

let get_allocation ?demand ?budget st ~job ~size =
  Partition.to_option (probe ?demand ?budget st ~job ~size)

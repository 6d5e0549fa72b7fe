open Fattree

let default_budget = 100_000

(* ------------------------------------------------------------------ *)
(* Three-level search with the full-leaf restriction.                  *)
(* ------------------------------------------------------------------ *)

(* Per-pod availability snapshot for the three-level search. *)
type pod_info = {
  pod : int;
  free_leaves : int array; (* fully-free leaf ids, ascending *)
  spine_masks : int array; (* per L2 index i: available spine indices *)
}

(* All three summary sources ([pod_fully_free_leaves], [leaf_fully_free]
   and [l2_up_mask] at demand 1.0) are O(1) reads of State's incremental
   caches, so a whole snapshot costs O(pods * (m1 + m2)) instead of the
   former O(pods * m1 * m2) rescan. *)
let pod_infos st ~demand =
  let topo = State.topo st in
  let m1 = Topology.m1 topo and m2 = Topology.m2 topo in
  Array.init (Topology.m3 topo) (fun pod ->
      let count = State.pod_fully_free_leaves st ~pod in
      let free_leaves =
        if count = 0 then [||]
        else begin
          let arr = Array.make count 0 in
          let k = ref 0 in
          for l = 0 to m2 - 1 do
            let leaf = Topology.leaf_of_coords topo ~pod ~leaf:l in
            if !k < count && State.leaf_fully_free st leaf then begin
              arr.(!k) <- leaf;
              incr k
            end
          done;
          arr
        end
      in
      let spine_masks =
        Array.init m1 (fun i ->
            let l2 = Topology.l2_of_coords topo ~pod ~index:i in
            State.l2_up_mask st ~l2 ~demand)
      in
      { pod; free_leaves; spine_masks })

(* Materialize one full tree: its first l_t fully-free leaves, all nodes,
   uplinks to every L2 index, and the chosen spine sets. *)
let materialize_full_tree st info ~l_t ~s ~spine_sets =
  let leaves =
    Array.init l_t (fun k ->
        Search.materialize_leaf st ~leaf:info.free_leaves.(k)
          ~take:(Array.length s) ~l2_indices:(Array.copy s))
  in
  { Partition.pod = info.pod; full_leaves = leaves; rem_leaf = None; spine_sets }

(* Try to complete a remainder tree in pod [info]:
   l_rt fully-free leaves plus (if n_rl > 0) a distinct remainder leaf
   with n_rl free nodes and uplink cables at indices where the pod also
   has the extra spine capacity.  [inter] is the running spine-mask
   intersection of the chosen full pods.  Returns the remainder tree and
   the per-index spine needs/choices. *)
let try_remainder st info ~l_t ~l_rt ~n_rl ~demand ~inter =
  let topo = State.topo st in
  let m1 = Topology.m1 topo in
  if Array.length info.free_leaves < l_rt then None
  else begin
    (* avail.(i): spine indices usable by this pod's L2_i consistent with
       the full pods' common sets. *)
    let avail = Array.init m1 (fun i -> inter.(i) land info.spine_masks.(i)) in
    let base_ok =
      l_rt = 0
      || Array.for_all (fun a -> Mask.popcount a >= l_rt) avail
    in
    if not base_ok then None
    else if n_rl = 0 then begin
      let spine_sets =
        if l_rt = 0 then [||]
        else Array.init m1 (fun i -> (i, Mask.to_array (Mask.take_lowest avail.(i) l_rt)))
      in
      let s = Array.init m1 (fun i -> i) in
      let leaves =
        Array.init l_rt (fun k ->
            Search.materialize_leaf st ~leaf:info.free_leaves.(k) ~take:m1
              ~l2_indices:(Array.copy s))
      in
      Some
        ( { Partition.pod = info.pod; full_leaves = leaves; rem_leaf = None; spine_sets },
          spine_sets )
    end
    else begin
      (* Indices where an extra downlink (the remainder leaf) can be
         matched by an extra spine uplink. *)
      let extra_ok =
        Array.init m1 (fun i -> Mask.popcount avail.(i) >= l_rt + 1)
      in
      let used_leaves =
        Array.to_list (Array.sub info.free_leaves 0 (min l_rt (Array.length info.free_leaves)))
      in
      (* Candidate remainder leaf: any leaf of the pod, not among the
         chosen fully-free leaves, with >= n_rl free nodes and uplink
         cables at >= n_rl indices i where extra_ok.(i). *)
      let m2 = Topology.m2 topo in
      let rec find_leaf l =
        if l >= m2 then None
        else begin
          let leaf = Topology.leaf_of_coords topo ~pod:info.pod ~leaf:l in
          if List.mem leaf used_leaves then find_leaf (l + 1)
          else begin
            let free = State.free_nodes_on_leaf st leaf in
            let up = State.leaf_up_mask st ~leaf ~demand in
            let eligible = ref 0 in
            for i = 0 to m1 - 1 do
              if extra_ok.(i) && Mask.mem up i then
                eligible := !eligible lor (1 lsl i)
            done;
            if free >= n_rl && Mask.popcount !eligible >= n_rl then
              Some (leaf, Mask.take_lowest !eligible n_rl)
            else find_leaf (l + 1)
          end
        end
      in
      match find_leaf 0 with
      | None -> None
      | Some (leaf, sr_mask) ->
          let s = Array.init m1 (fun i -> i) in
          let leaves =
            Array.init l_rt (fun k ->
                Search.materialize_leaf st ~leaf:info.free_leaves.(k) ~take:m1
                  ~l2_indices:(Array.copy s))
          in
          let rem_leaf =
            Search.materialize_leaf st ~leaf ~take:n_rl
              ~l2_indices:(Mask.to_array sr_mask)
          in
          let spine_sets =
            let sets = ref [] in
            for i = m1 - 1 downto 0 do
              let need = l_rt + if Mask.mem sr_mask i then 1 else 0 in
              if need > 0 then
                sets := (i, Mask.to_array (Mask.take_lowest avail.(i) need)) :: !sets
            done;
            Array.of_list !sets
          in
          ignore l_t;
          Some
            ( {
                Partition.pod = info.pod;
                full_leaves = leaves;
                rem_leaf = Some rem_leaf;
                spine_sets;
              },
              spine_sets )
    end
  end

(* Every three-level shape needs t·l_t + l_rt = alloc_size / m1 distinct
   fully-free leaves (the remainder leaf holds n_rl < m1 nodes), so too
   few fully-free leaves machine-wide rules out every shape.  O(pods)
   reads of State's counters, checked before the O(pods·(m1+m2))
   snapshot. *)
let three_level_may_fit st ~alloc_size =
  let topo = State.topo st in
  let total = ref 0 in
  for pod = 0 to Topology.m3 topo - 1 do
    total := !total + State.pod_fully_free_leaves st ~pod
  done;
  !total >= alloc_size / Topology.m1 topo

let search_three_level st ~job ~size ~demand ~budget shapes =
  let topo = State.topo st in
  let m1 = Topology.m1 topo and m3 = Topology.m3 topo in
  let infos = pod_infos st ~demand in
  (* Quick necessary-condition filter: enough pods with enough fully-free
     leaves for the full trees and the remainder tree.  Hopeless shapes
     are skipped before any backtracking. *)
  let pods_with k =
    let c = ref 0 in
    Array.iter
      (fun info -> if Array.length info.free_leaves >= k then incr c)
      infos;
    !c
  in
  let shapes =
    List.filter
      (fun (s : Shapes.three_level) ->
        pods_with s.l_t3 >= s.t
        && (s.n_rt = 0 || s.l_rt = 0 || pods_with s.l_rt >= s.t + 1))
      shapes
  in
  let rec over_shapes = function
    | [] -> None
    | ({ Shapes.l_t3 = l_t; t; n_rt; l_rt; n_rl3 = n_rl; _ } : Shapes.three_level)
      :: rest ->
        let eligible p = Array.length infos.(p).free_leaves >= l_t in
        (* Recursive backtracking over pods (find_L3).  [inter] is the
           per-L2-index intersection of available spine masks. *)
        let chosen = ref [] in
        let result = ref None in
        let rec pick start taken (inter : int array) =
          if !result <> None || !budget <= 0 then ()
          else begin
            decr budget;
            if taken = t then begin
              if n_rt = 0 then finish inter None
              else begin
                (* Find a remainder pod among pods not chosen. *)
                let in_chosen p = List.mem p !chosen in
                let rec find_rem p =
                  if p >= m3 || !result <> None then ()
                  else begin
                    if not (in_chosen p) then begin
                      match
                        try_remainder st infos.(p) ~l_t ~l_rt ~n_rl ~demand
                          ~inter
                      with
                      | Some (tree, rem_spines) ->
                          finish inter (Some (tree, rem_spines))
                      | None -> find_rem (p + 1)
                    end
                    else find_rem (p + 1)
                  end
                in
                find_rem 0
              end
            end
            else begin
              let p = ref start in
              while !result = None && !p < m3 do
                let info = infos.(!p) in
                if eligible !p then begin
                  let inter' =
                    Array.init m1 (fun i -> inter.(i) land info.spine_masks.(i))
                  in
                  if Array.for_all (fun x -> Mask.popcount x >= l_t) inter' then begin
                    chosen := !p :: !chosen;
                    pick (!p + 1) (taken + 1) inter';
                    if !result = None then chosen := List.tl !chosen
                  end
                end;
                incr p
              done
            end
          end
        and finish inter rem =
          (* Choose common spine sets: prefer indices the remainder tree
             can also reach so that its subsets are honoured. *)
          let rem_spines =
            match rem with Some (_, s) -> Some s | None -> None
          in
          let spine_sets =
            Array.init m1 (fun i ->
                let prefer =
                  match rem_spines with
                  | None -> 0
                  | Some sets ->
                      Array.fold_left
                        (fun acc (j, s) ->
                          if i = j then acc lor Mask.of_array s else acc)
                        0 sets
                in
                (i, Mask.to_array (Mask.take_preferring inter.(i) ~prefer l_t)))
          in
          let s = Array.init m1 (fun i -> i) in
          let full_trees =
            List.rev !chosen
            |> List.map (fun p ->
                   materialize_full_tree st infos.(p) ~l_t ~s ~spine_sets)
            |> Array.of_list
          in
          let rem_tree = Option.map fst rem in
          result := Some { Partition.job; size; full_trees; rem_tree }
        in
        pick 0 0 (Array.make m1 (lnot 0));
        (match !result with Some _ as ok -> ok | None -> over_shapes rest)
  in
  over_shapes shapes

let three_level_shapes st ~alloc_size =
  let topo = State.topo st in
  Shapes.three_level topo ~size:alloc_size ~n_l:(Topology.m1 topo)

let three_level_unguarded st ~job ~size ~alloc_size ~demand ~budget =
  search_three_level st ~job ~size ~demand ~budget
    (three_level_shapes st ~alloc_size)

let try_three_level st ~job ~size ~alloc_size ~demand ~budget =
  match three_level_shapes st ~alloc_size with
  | [] -> None
  | _ when not (three_level_may_fit st ~alloc_size) -> None
  | shapes -> search_three_level st ~job ~size ~demand ~budget shapes

let allocate ?(demand = 1.0) ?(budget = default_budget) ?(two_level_only = false)
    st ~job ~size ~alloc_size =
  let topo = State.topo st in
  if
    size <= 0
    || alloc_size < size
    || alloc_size > Topology.num_nodes topo
    || State.total_free_nodes st < alloc_size
  then Partition.Infeasible
  else begin
    match Search.first_two_level st ~job ~size ~alloc_size ~demand with
    | Some p -> Partition.Found p
    | None ->
        if two_level_only then Partition.Infeasible
        else begin
          let budget = ref budget in
          match try_three_level st ~job ~size ~alloc_size ~demand ~budget with
          | Some p -> Partition.Found p
          | None ->
              if !budget <= 0 then Partition.Exhausted else Partition.Infeasible
        end
  end

let probe ?demand ?budget ?two_level_only st ~job ~size =
  allocate ?demand ?budget ?two_level_only st ~job ~size ~alloc_size:size

let probe_whole_leaves ?demand ?budget st ~job ~size =
  let topo = State.topo st in
  let m1 = Topology.m1 topo in
  let alloc_size = (size + m1 - 1) / m1 * m1 in
  allocate ?demand ?budget st ~job ~size ~alloc_size

let get_allocation ?demand ?budget ?two_level_only st ~job ~size =
  Partition.to_option (probe ?demand ?budget ?two_level_only st ~job ~size)

let get_allocation_whole_leaves ?demand ?budget st ~job ~size =
  Partition.to_option (probe_whole_leaves ?demand ?budget st ~job ~size)

open Fattree

type leaf_info = { leaf : int; free : int; up_mask : int }

let pod_leaf_infos st ~pod ~demand =
  let topo = State.topo st in
  let m2 = Topology.m2 topo in
  Array.init m2 (fun l ->
      let leaf = Topology.leaf_of_coords topo ~pod ~leaf:l in
      {
        leaf;
        free = State.free_nodes_on_leaf st leaf;
        up_mask = State.leaf_up_mask st ~leaf ~demand;
      })

type pod_solution = { leaf_set : int array; cap_mask : int }

let materialize_leaf st ~leaf ~take ~l2_indices =
  if Array.length l2_indices <> take then
    invalid_arg "Search.materialize_leaf: l2_indices length mismatch";
  let topo = State.topo st in
  let first = Topology.leaf_first_node topo leaf in
  let slots = State.free_slot_mask st leaf in
  let chosen = Mask.take_lowest slots take in
  let nodes = Array.map (fun s -> first + s) (Mask.to_array chosen) in
  { Partition.leaf = leaf; nodes; l2_indices }

(* Backtracking over the pod's leaves in index order, mirroring find_L2 of
   Algorithm 1: each recursive level picks the next full leaf strictly
   after the previous one and narrows the running uplink-capability
   intersection.  At the base case we look for the remainder leaf among
   leaves not already used. *)
let find_two_level st ~job ~pod ~(shape : Shapes.two_level) ~demand =
  let infos = pod_leaf_infos st ~pod ~demand in
  let m2 = Array.length infos in
  let { Shapes.n_l; l_t; n_rl } = shape in
  let candidate info = info.free >= n_l && Mask.popcount info.up_mask >= n_l in
  let used = Array.make m2 false in
  let find_remainder cap_mask =
    (* A remainder leaf needs n_rl free nodes and n_rl available uplinks
       whose indices can be covered by a choice of S inside cap_mask. *)
    let rec go l =
      if l >= m2 then None
      else begin
        let info = infos.(l) in
        let overlap = info.up_mask land cap_mask in
        if
          (not used.(l))
          && info.free >= n_rl
          && Mask.popcount overlap >= n_rl
        then Some (l, overlap)
        else go (l + 1)
      end
    in
    go 0
  in
  let chosen = ref [] in
  let rec pick start taken cap_mask =
    if taken = l_t then begin
      (* Base case: fix S and, if needed, the remainder leaf. *)
      if n_rl = 0 then begin
        let s = Mask.take_lowest cap_mask n_l in
        Some (s, None)
      end
      else begin
        match find_remainder cap_mask with
        | None -> None
        | Some (l, overlap) ->
            (* Choose S within cap_mask preferring indices reachable by the
               remainder leaf, then Sr inside S ∩ overlap. *)
            let s = Mask.take_preferring cap_mask ~prefer:overlap n_l in
            let sr = Mask.take_lowest (s land overlap) n_rl in
            Some (s, Some (l, sr))
      end
    end
    else begin
      let rec try_leaf l =
        if l >= m2 then None
        else begin
          let info = infos.(l) in
          let cap' = cap_mask land info.up_mask in
          if candidate info && Mask.popcount cap' >= n_l then begin
            used.(l) <- true;
            chosen := l :: !chosen;
            match pick (l + 1) (taken + 1) cap' with
            | Some _ as ok -> ok
            | None ->
                used.(l) <- false;
                chosen := List.tl !chosen;
                try_leaf (l + 1)
          end
          else try_leaf (l + 1)
        end
      in
      try_leaf start
    end
  in
  match pick 0 0 (lnot 0) with
  | None -> None
  | Some (s_mask, rem) ->
      let s = Mask.to_array s_mask in
      let full_leaves =
        List.rev !chosen
        |> List.map (fun l ->
               materialize_leaf st ~leaf:infos.(l).leaf ~take:n_l
                 ~l2_indices:(Array.copy s))
        |> Array.of_list
      in
      let rem_leaf =
        Option.map
          (fun (l, sr_mask) ->
            materialize_leaf st ~leaf:infos.(l).leaf ~take:n_rl
              ~l2_indices:(Mask.to_array sr_mask))
          rem
      in
      ignore job;
      Some { Partition.pod; full_leaves; rem_leaf; spine_sets = [||] }

(* Necessary conditions read from State's cached per-pod row, where
   [c.(n-1)] counts leaves able to carry [n] nodes: the shape's [l_t]
   full leaves each carry [n_l], and a remainder leaf is a further,
   distinct leaf carrying [n_rl] — as can each full leaf, since
   [n_rl < n_l]. *)
let pod_may_fit st ~pod ~(shape : Shapes.two_level) ~demand =
  let c = State.pod_candidates st ~pod ~demand in
  c.(shape.n_l - 1) >= shape.l_t
  && (shape.n_rl = 0 || c.(shape.n_rl - 1) >= shape.l_t + 1)

let first_two_level st ~job ~size ~alloc_size ~demand =
  let topo = State.topo st in
  let m3 = Topology.m3 topo in
  let rec over_shapes = function
    | [] -> None
    | shape :: rest ->
        let rec over_pods pod =
          if pod >= m3 then over_shapes rest
          else if not (pod_may_fit st ~pod ~shape ~demand) then
            over_pods (pod + 1)
          else begin
            match find_two_level st ~job ~pod ~shape ~demand with
            | Some tree ->
                Some
                  { Partition.job; size; full_trees = [| tree |]; rem_tree = None }
            | None -> over_pods (pod + 1)
          end
        in
        over_pods 0
  in
  over_shapes (Shapes.two_level topo ~size:alloc_size)

let find_all st ~pod ~l_t ~n_l ~demand ~budget =
  let infos = pod_leaf_infos st ~pod ~demand in
  let m2 = Array.length infos in
  let candidate info = info.free >= n_l && Mask.popcount info.up_mask >= n_l in
  let sols = ref [] in
  let chosen = ref [] in
  let rec pick start taken cap_mask =
    if !budget <= 0 then ()
    else begin
      decr budget;
      if taken = l_t then
        sols :=
          {
            leaf_set =
              Array.of_list (List.rev_map (fun l -> infos.(l).leaf) !chosen);
            cap_mask;
          }
          :: !sols
      else
        for l = start to m2 - 1 do
          let info = infos.(l) in
          let cap' = cap_mask land info.up_mask in
          if candidate info && Mask.popcount cap' >= n_l then begin
            chosen := l :: !chosen;
            pick (l + 1) (taken + 1) cap';
            chosen := List.tl !chosen
          end
        done
    end
  in
  pick 0 0 (lnot 0);
  List.rev !sols

(** The Jigsaw allocation algorithm (paper §4, Algorithm 1).

    [get_allocation] searches for a partition satisfying the formal
    conditions of §3.2, restricted — as Jigsaw requires — to {e full
    leaves} ([n_l] = nodes-per-leaf) for allocations spanning more than
    one pod.  Two-level (single-pod) allocations are tried first, over
    every decomposition [size = l_t·n_l + n_rl] with any [n_l]; if none
    fits, three-level allocations [size = t·n_t + n_rt] are tried with
    recursive backtracking over pods, requiring a consistent L2 index set
    and common spine sets per L2 index.

    The returned partition has not been claimed: callers claim
    [Partition.to_alloc topo p ~bw:demand] against the state.  The search
    only proposes resources that are free at the given demand, so an
    immediate claim always succeeds (single-threaded schedulers). *)

val default_budget : int
(** Backtracking-step backstop (the paper's Jigsaw needs no timeout; this
    bound is orders of magnitude above what searches use in practice and
    exists to keep adversarial states from hanging a simulation). *)

val probe :
  ?demand:float ->
  ?budget:int ->
  ?two_level_only:bool ->
  Fattree.State.t ->
  job:int ->
  size:int ->
  Partition.probe
(** Like {!get_allocation} but reports {e why} no partition was returned:
    [Infeasible] (definitive, search space covered) vs [Exhausted]
    (budget cut the search short).  The scheduler's no-fit memo may only
    cache [Infeasible]. *)

val probe_whole_leaves :
  ?demand:float ->
  ?budget:int ->
  Fattree.State.t ->
  job:int ->
  size:int ->
  Partition.probe
(** {!get_allocation_whole_leaves} with the same outcome reporting. *)

val get_allocation :
  ?demand:float ->
  ?budget:int ->
  ?two_level_only:bool ->
  Fattree.State.t ->
  job:int ->
  size:int ->
  Partition.t option
(** [get_allocation st ~job ~size] is the first Jigsaw-compliant partition
    found for a [size]-node job on the current state, or [None] if none
    exists (or the budget ran out).  [demand] (default 1.0) is the
    per-cable bandwidth fraction to require and is 1.0 for the isolating
    scheduler; fractions are used by the LC+S bounding scheduler.
    [two_level_only] (default false) stops after the single-pod search —
    the shared prefix of LaaS's algorithm. *)

val get_allocation_whole_leaves :
  ?demand:float ->
  ?budget:int ->
  Fattree.State.t ->
  job:int ->
  size:int ->
  Partition.t option
(** The Links-as-a-Service placement mode: the request is rounded up to
    whole leaves (alloc = ceil(size / m1) * m1 nodes) and only full-leaf
    shapes are searched, reproducing LaaS's reduction of the three-level
    problem to two levels.  The returned partition carries the padded
    node set but records the original [size], exposing LaaS's internal
    node fragmentation to the utilization metrics. *)

(** {1 Three-level guard}

    Exposed for the soundness laws in the test suite. *)

val three_level_may_fit : Fattree.State.t -> alloc_size:int -> bool
(** O(pods) necessary condition checked before the three-level search
    builds its per-pod snapshot: the machine holds at least
    [alloc_size / m1] fully-free leaves, as every three-level shape of
    [alloc_size] nodes needs.  [false] implies {!three_level_unguarded}
    returns [None] without charging [budget]. *)

val three_level_unguarded :
  Fattree.State.t ->
  job:int ->
  size:int ->
  alloc_size:int ->
  demand:float ->
  budget:int ref ->
  Partition.t option
(** The three-level search without {!three_level_may_fit} in front of
    it: first the full-leaf shapes of [alloc_size], then recursive
    backtracking over pods, decrementing [budget] per step. *)

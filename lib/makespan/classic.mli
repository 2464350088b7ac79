(** The “classical” makespan-distribution evaluation (§V): a forward
    sweep over the disjunctive graph that assumes all intermediate
    distributions are independent.

    Completion-time recursion over the schedule's disjunctive graph:
    [ready(t) = max over preds p of (C(p) + comm(p→t))] (CDF product for
    the max, convolution for the sum), then [C(t) = ready(t) + dur(t)].
    The makespan is the max over exit completions. This is exactly the
    method the paper selected after finding it as accurate as Dodin's and
    Spelde's on its cases (its degradation with graph size is Fig. 1).

    The evaluation entry point is {!Engine.eval}; this module is its
    classical backend. Every function takes the maximum operator as
    [~max]: the engine passes {!Distribution.Dist.max_indep}, and
    {!Bounds} passes {!Distribution.Dist.max_comonotone} for the lower
    bound. *)

type max_op = points:int -> Distribution.Dist.t -> Distribution.Dist.t -> Distribution.Dist.t
(** A binary maximum of completion-time distributions on [points]-sample
    grids. *)

val update_node :
  max:max_op ->
  points:int ->
  dgraph:Dag.Graph.t ->
  task_dist:(task:int -> proc:int -> Distribution.Dist.t) ->
  comm_dist:(volume:float -> src:int -> dst:int -> Distribution.Dist.t) ->
  ?arrival:(src:int -> Distribution.Dist.t -> Distribution.Dist.t) ->
  Sched.Schedule.t ->
  Distribution.Dist.t array ->
  int ->
  unit
(** Recompute one node's completion distribution in place from its
    predecessors' entries in the given array — the single-node body of
    {!completion_dists_with}, exposed so {!Engine.reevaluate_any} can replay
    just a dirty cone and still produce bitwise-identical results (the
    fold order over [Dag.Graph.preds] is the deterministic sorted
    order).

    [arrival ~src comm], when given, replaces the data-edge arrival
    [Dist.add ~points completion.(src) comm] (with [comm] the edge's
    distribution from [comm_dist]); it must return the same bits. The
    engine's sessions pass a per-edge memo here. *)

val completion_dists_with :
  max:max_op ->
  points:int ->
  dgraph:Dag.Graph.t ->
  ?completion:Distribution.Dist.t array ->
  task_dist:(task:int -> proc:int -> Distribution.Dist.t) ->
  comm_dist:(volume:float -> src:int -> dst:int -> Distribution.Dist.t) ->
  Sched.Schedule.t ->
  Distribution.Dist.t array
(** The propagation with injected duration/communication distributions.
    [dgraph] must be the schedule's disjunctive graph.
    When [?completion] is given and long enough it is used as scratch and
    returned (entries beyond the task count are left untouched);
    otherwise a fresh array is allocated. *)

val makespan_of_exits :
  max:max_op ->
  points:int ->
  Dag.Graph.t ->
  Distribution.Dist.t array ->
  Distribution.Dist.t
(** Maximum of the exit tasks' completion distributions. *)

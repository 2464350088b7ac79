(* Shadow classical sweep: a replica of the fold in
   [Makespan.Classic.update_node] / [makespan_of_exits], written against
   public APIs only ([Dag.Graph.preds]/[volume], [Engine.task_dist]/
   [comm_dist], [Dist.add]/[max_indep]), that times every distribution
   call. Its result must be bitwise-equal to [Engine.eval] on the same
   schedule; the caller refuses to report the counts otherwise.

   Adds are classed by an observable input property: [const] when either
   operand is a point mass, [narrow] when the smaller operand's support
   is under 1/16 of the two widths summed (the k-point regime), and
   [balanced] otherwise. *)

module Dist = Distribution.Dist

type counts = {
  mutable narrow : int;
  mutable narrow_us : float;
  mutable balanced : int;
  mutable balanced_us : float;
  mutable const : int;
  mutable const_us : float;
  mutable max : int;
  mutable max_us : float;
  mutable lookups : int;
  mutable lookup_us : float;
  mutable sweeps : int;
  mutable sweep_us : float;
}

let counts () =
  {
    narrow = 0;
    narrow_us = 0.;
    balanced = 0;
    balanced_us = 0.;
    const = 0;
    const_us = 0.;
    max = 0;
    max_us = 0.;
    lookups = 0;
    lookup_us = 0.;
    sweeps = 0;
    sweep_us = 0.;
  }

let width d =
  let lo, hi = Dist.support d in
  hi -. lo

type add_class = Const | Narrow | Balanced

let classify a b =
  if Dist.is_const a || Dist.is_const b then Const
  else
    let wa = width a and wb = width b in
    if Float.min wa wb < (wa +. wb) /. 16. then Narrow else Balanced

let add c ~points a b =
  let cls = classify a b in
  let t0 = Common.now_us () in
  let r = Dist.add ~points a b in
  let dt = Common.now_us () -. t0 in
  (match cls with
  | Const ->
    c.const <- c.const + 1;
    c.const_us <- c.const_us +. dt
  | Narrow ->
    c.narrow <- c.narrow + 1;
    c.narrow_us <- c.narrow_us +. dt
  | Balanced ->
    c.balanced <- c.balanced + 1;
    c.balanced_us <- c.balanced_us +. dt);
  r

let max c ~points a b =
  let t0 = Common.now_us () in
  let r = Dist.max_indep ~points a b in
  c.max <- c.max + 1;
  c.max_us <- c.max_us +. (Common.now_us () -. t0);
  r

let lookup c f =
  let t0 = Common.now_us () in
  let r = f () in
  c.lookups <- c.lookups + 1;
  c.lookup_us <- c.lookup_us +. (Common.now_us () -. t0);
  r

(* Makespan distribution of [sched] under independence, by the same
   left folds as the engine's classical backend. *)
let eval c engine sched =
  let t0 = Common.now_us () in
  let points = (Makespan.Engine.model engine).Workloads.Stochastify.points in
  let graph = sched.Sched.Schedule.graph in
  let proc_of = sched.Sched.Schedule.proc_of in
  let dgraph = Sched.Disjunctive.graph_of sched in
  let completion = Array.make (Dag.Graph.n_tasks dgraph) (Dist.const 0.) in
  let arrival v (p, _) =
    match Dag.Graph.volume graph ~src:p ~dst:v with
    | None -> completion.(p)
    | Some volume ->
      let comm =
        lookup c (fun () ->
            Makespan.Engine.comm_dist engine ~volume ~src:proc_of.(p) ~dst:proc_of.(v))
      in
      add c ~points completion.(p) comm
  in
  Array.iter
    (fun v ->
      let preds = Dag.Graph.preds dgraph v in
      let ready =
        if Array.length preds = 0 then Dist.const 0.
        else begin
          let acc = ref (arrival v preds.(0)) in
          for i = 1 to Array.length preds - 1 do
            acc := max c ~points !acc (arrival v preds.(i))
          done;
          !acc
        end
      in
      let dur =
        lookup c (fun () -> Makespan.Engine.task_dist engine ~task:v ~proc:proc_of.(v))
      in
      completion.(v) <- add c ~points ready dur)
    (Dag.Graph.topo_order dgraph);
  let exits = Dag.Graph.exits dgraph in
  let acc = ref completion.(exits.(0)) in
  for i = 1 to Array.length exits - 1 do
    acc := max c ~points !acc completion.(exits.(i))
  done;
  c.sweeps <- c.sweeps + 1;
  c.sweep_us <- c.sweep_us +. (Common.now_us () -. t0);
  !acc

(* Shadow-sweep [sched] and compare it bitwise with [Engine.eval]. *)
let check c engine sched =
  let mine = eval c engine sched in
  Common.dist_bits_equal mine (Makespan.Engine.eval engine sched)

let dist_us c = c.narrow_us +. c.balanced_us +. c.const_us +. c.max_us

(* Per-layer metrics of the distribution layer, per sampled sweep. *)
let metrics c =
  let per_sweep x = Common.ratio (float_of_int x) (float_of_int c.sweeps) in
  let per_call us n = Common.ratio us (float_of_int n) in
  Common.
    [
      m "distribution.add_narrow.calls" "count" (per_sweep c.narrow);
      m "distribution.add_narrow_us" "us" (per_call c.narrow_us c.narrow);
      m "distribution.add_balanced.calls" "count" (per_sweep c.balanced);
      m "distribution.add_balanced_us" "us" (per_call c.balanced_us c.balanced);
      m "distribution.add_const.calls" "count" (per_sweep c.const);
      m "distribution.max.calls" "count" (per_sweep c.max);
      m "distribution.max_us" "us" (per_call c.max_us c.max);
      m "distribution.sweep_share" "frac" (ratio (dist_us c) c.sweep_us);
      m "makespan.lookup_us" "us" (per_call c.lookup_us c.lookups);
    ]

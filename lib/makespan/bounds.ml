type t = {
  lower : Distribution.Dist.t;
  upper : Distribution.Dist.t;
}

let max_comonotone ~points a b = Distribution.Dist.max_comonotone ~points a b

(* the engine's classical backend with every maximum made comonotone *)
let lower engine sched =
  let points = (Engine.model engine).Workloads.Stochastify.points in
  let dgraph = Sched.Disjunctive.graph_of sched in
  let completion =
    Classic.completion_dists_with ~max:max_comonotone ~points ~dgraph
      ~task_dist:(Engine.task_dist engine) ~comm_dist:(Engine.comm_dist engine) sched
  in
  Classic.makespan_of_exits ~max:max_comonotone ~points dgraph completion

let run engine sched =
  let upper = Engine.eval engine sched in
  { lower = lower engine sched; upper }

let enclose b d =
  let open Distribution in
  let lo1, hi1 = Dist.support b.lower in
  let lo2, hi2 = Dist.support b.upper in
  let lo3, hi3 = Dist.support d in
  let lo = Float.min lo1 (Float.min lo2 lo3) and hi = Float.max hi1 (Float.max hi2 hi3) in
  let ok = ref true in
  let n = 256 in
  (* tolerance for grid resampling and Monte-Carlo noise *)
  let eps = 0.02 in
  for i = 0 to n do
    let x = lo +. ((hi -. lo) *. float_of_int i /. float_of_int n) in
    let f_upper = Dist.cdf_at b.upper x in
    let f_lower = Dist.cdf_at b.lower x in
    let f = Dist.cdf_at d x in
    if f < f_upper -. eps || f > f_lower +. eps then ok := false
  done;
  !ok

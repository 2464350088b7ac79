(* Shared helpers for the test suites. *)

let check_close ?(eps = 1e-9) msg expected actual =
  if not (Float.abs (expected -. actual) <= eps *. Float.max 1. (Float.abs expected)) then
    Alcotest.failf "%s: expected %.10g, got %.10g (eps %.1e)" msg expected actual eps

let check_close_abs ?(eps = 1e-9) msg expected actual =
  if not (Float.abs (expected -. actual) <= eps) then
    Alcotest.failf "%s: expected %.10g, got %.10g (abs eps %.1e)" msg expected actual eps

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let rng_of_seed seed = Prng.Xoshiro.create (Int64.of_int seed)

(* Single validity oracle for schedules produced in tests. *)
let check_valid ?(msg = "schedule") sched =
  match Sched.Schedule.validate sched with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invalid schedule: %s" msg e

(* A random DAG generator for property tests: edge (i, j) with i < j
   present with probability [p]. *)
let random_dag_gen =
  let open QCheck2.Gen in
  let* n = int_range 1 12 in
  let* p = float_range 0.1 0.6 in
  let* seed = int_range 0 10000 in
  let rng = rng_of_seed seed in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Prng.Xoshiro.next_float rng < p then begin
        let volume = Prng.Sampler.uniform rng ~lo:0. ~hi:5. in
        edges := (i, j, volume) :: !edges
      end
    done
  done;
  return (Dag.Graph.make ~n ~edges:!edges)

(* A random (graph, platform, schedule) triple. *)
let random_scheduled_gen =
  let open QCheck2.Gen in
  let* graph = random_dag_gen in
  let* n_procs = int_range 1 4 in
  let* seed = int_range 0 10000 in
  let rng = rng_of_seed (seed + 31337) in
  let platform =
    Platform.Gen.uniform_minval ~rng ~n_tasks:(Dag.Graph.n_tasks graph) ~n_procs ()
  in
  let sched = Sched.Random_sched.generate ~rng ~graph ~n_procs in
  check_valid ~msg:"random_scheduled_gen" sched;
  return (graph, platform, sched)

(* --- evaluation through a one-shot engine --- *)

let engine_for sched platform model =
  Makespan.Engine.create ~graph:sched.Sched.Schedule.graph ~platform ~model

(* [Makespan.Engine.eval] of a schedule on a fresh engine of its case. *)
let eval ?backend sched platform model =
  Makespan.Engine.eval ?backend (engine_for sched platform model) sched

(* The Spelde and Dodin cores over a one-shot engine's cached views, for
   the by-products [Engine.eval] does not return: Spelde's (mean, std)
   before it becomes a normal grid, and Dodin's duplication count. *)
let spelde_moments sched platform model =
  let engine = engine_for sched platform model in
  Makespan.Spelde.moments_with ~dgraph:(Sched.Disjunctive.graph_of sched)
    ~task_moments:(fun ~task ~proc ->
      Distribution.Normal_pair.make
        ~mean:(Makespan.Engine.task_mean engine ~task ~proc)
        ~std:(Makespan.Engine.task_std engine ~task ~proc))
    ~comm_moments:(fun ~volume ~src ~dst ->
      Distribution.Normal_pair.make
        ~mean:(Makespan.Engine.comm_mean engine ~volume ~src ~dst)
        ~std:(Makespan.Engine.comm_std engine ~volume ~src ~dst))
    sched

let dodin_outcome sched platform model =
  let engine = engine_for sched platform model in
  Makespan.Dodin.evaluate_with ~points:model.Workloads.Stochastify.points
    ~dgraph:(Sched.Disjunctive.graph_of sched) ~task_dist:(Makespan.Engine.task_dist engine)
    ~comm_dist:(Makespan.Engine.comm_dist engine) sched

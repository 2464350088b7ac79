(* Workload [anneal]: [Search.Anneal.run] with [Search.Anneal.default]
   (σ_M objective, Metropolis cooling, HEFT init, move mix 12:3:1) at a
   fixed step budget, one domain, on the random30/p8 UL 1.01 case the
   Bechamel fixtures use; the benchmark seed draws the annealer seeds.
   Incremental-session probes and commit replays dominate it, with no
   pool, I/O or calibration, so a change to the cone or commit path
   shows here and should not move [campaign]. *)

module E = Experiments
open Common

let steps () = if !tiny then 100 else 1000
let setup_reps = 41
(* The highest percentile of one annealer run's 1 000 step times with
   ten steps beyond it. *)
let tail_p = 0.99

let case = E.Case.make ~kind:E.Case.Random_graph ~n_target:30 ~n_procs:8 ~ul:1.01 ()

let config ~seed = { Search.Anneal.default with seed = Int64.of_int seed; steps = steps () }

(* Instance generation, engine start, the initial schedule, and one
   analyze that fills the duration cells every probe reads. *)
let setup () =
  let { E.Case.graph; platform; model; _ } = E.Case.instantiate case in
  let engine = Makespan.Engine.create ~graph ~platform ~model in
  let init = heft graph platform in
  ignore (Makespan.Engine.analyze engine init);
  (engine, init)

(* The best objective must equal the objective of a fresh analyze of
   [best] on a fresh engine, bit for bit. *)
let objective_verified (config : Search.Anneal.config) (o : Search.Anneal.outcome) =
  let { E.Case.graph; platform; model; _ } = E.Case.instantiate case in
  let fresh = Makespan.Engine.create ~graph ~platform ~model in
  let v = Search.Objective.value config.objective o.bounds (Makespan.Engine.analyze fresh o.best) in
  Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float o.best_objective)

let anneal ~engine ~init config =
  let marks = ref [] in
  let should_stop () =
    marks := now_s () :: !marks;
    false
  in
  let t0 = now_s () in
  let o = Search.Anneal.run ~should_stop ~engine ~init config in
  let t1 = now_s () in
  let dt = t1 -. t0 in
  (* [should_stop] is called as each step starts; the last step ends
     when [run] returns *)
  let step_s =
    match List.rev (t1 :: !marks) with
    | [] -> []
    | first :: rest ->
      List.rev (snd (List.fold_left (fun (prev, acc) t -> (t, (t -. prev) :: acc)) (first, []) rest))
  in
  (o, dt, step_s)

let check_outcome ck config (o : Search.Anneal.outcome) =
  check ck (not o.interrupted) "anneal interrupted";
  check ck (o.stats.steps_done = config.Search.Anneal.steps) "anneal step budget";
  check ck (Float.is_finite o.best_objective) "non-finite best objective";
  check ck (objective_verified config o) "best objective differs from a fresh analyze"

(* ------------------------------------------------------------------ *)
(* Untraced run                                                       *)
(* ------------------------------------------------------------------ *)

(* Independent annealer seeds per run: step costs depend on the
   trajectory, so one run averages over several. Each annealer run gives
   its own rate and step-time percentiles, and the run reports their
   medians, so a burst of host noise during one annealer run does not
   move the result. *)
let runs = 5

let untraced ~seed ~seconds:_ =
  let setup_s, (engine, init) = repeated_setup ~reps:setup_reps setup in
  let ck = checks () in
  let rs =
    List.init runs (fun j ->
        let config = config ~seed:((seed * runs) + j) in
        let o, dt, step_s = anneal ~engine ~init config in
        check_outcome ck config o;
        let step_ms = List.map (fun x -> x *. 1e3) step_s in
        check ck (tail_ok ~n:(List.length step_ms) ~p:tail_p) "too few steps for the tail";
        (o.Search.Anneal.stats.steps_done, float_of_int o.stats.steps_done /. dt, step_ms))
  in
  let done_steps = List.fold_left (fun a (n, _, _) -> a + n) 0 rs in
  let attempted = steps () * runs in
  {
    correct = n_failed ck = 0;
    attempted;
    failed = (attempted - done_steps) + n_failed ck;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "peak_rss_mb" "MB" (peak_rss_mb "self");
        m "ops_per_s" "1/s" (median (List.map (fun (_, rate, _) -> rate) rs));
        m "p50_ms" "ms" (median (List.map (fun (_, _, ms) -> median ms) rs));
        m "tail_ms" "ms" (median (List.map (fun (_, _, ms) -> quantile ms tail_p) rs));
      ];
    notes = List.map (fun f -> ("check", f)) ck.failures;
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                         *)
(* ------------------------------------------------------------------ *)

(* Neighbors drawn per probe class in the traced breakdown. *)
let probe_samples () = if !tiny then 10 else 150

let draw rng sched =
  if Prng.Xoshiro.int rng 5 < 4 then Some (Sched.Neighbor.Reassign (Sched.Neighbor.random ~rng sched))
  else Option.map (fun s -> Sched.Neighbor.Swap s) (Sched.Neighbor.random_swap ~rng sched)

let traced ~seed ~seconds:_ =
  let span = Recorder.with_ in
  let ck = checks () in
  let config = config ~seed in
  let engine, init = setup () in
  let o_untraced, _, _ = anneal ~engine ~init config in
  let shadow = Shadow.counts () in
  Recorder.enable ();
  let t_root0 = now_us () in
  let n = Dag.Graph.n_tasks (Makespan.Engine.graph engine) in
  let result =
    span "workload" (fun () ->
        let { E.Case.graph; platform; model; _ } =
          span "workloads.instantiate" (fun () -> E.Case.instantiate case)
        in
        let engine = span "makespan.engine_create" (fun () -> Makespan.Engine.create ~graph ~platform ~model) in
        let init = span "sched.heuristic" (fun () -> heft graph platform) in
        let before = Makespan.Engine.stats engine in
        let o, wall_traced, _ = span "search.anneal" (fun () -> anneal ~engine ~init config) in
        let after = Makespan.Engine.stats engine in
        check_outcome ck config o;
        check ck
          (Search.Archive.to_csv o.frontier = Search.Archive.to_csv o_untraced.frontier)
          "frontier CSV differs between the untraced and the traced run";
        (* Probe, commit and full-evaluation costs on neighbors of the
           init. Each sample runs twice, untraced and traced, for the
           tracing overhead; only the traced twin's spans and shadow
           counts are kept. *)
        let off = ref 0. and on = ref 0. in
        let rng = Prng.Xoshiro.create (Int64.of_int (seed + 1)) in
        let probe_session = Makespan.Engine.start_session engine init in
        let archives = Array.init 2 (fun _ -> Search.Archive.create ~axis:`Sigma) in
        let shadows = [| Shadow.counts (); shadow |] in
        for i = 1 to probe_samples () do
          match draw rng init with
          | None -> ()
          | Some mv -> (
            match Sched.Neighbor.apply_any_opt init mv with
            | None -> ()
            | Some nb ->
              Recorder.twins ~off ~on i (fun traced ->
                  let probe =
                    span "makespan.probe" (fun () ->
                        Makespan.Engine.reevaluate_any ~commit:false ~max_cone:n probe_session mv)
                  in
                  let full = span "makespan.analyze.random" (fun () -> Makespan.Engine.analyze engine nb) in
                  check ck
                    (dist_bits_equal probe.makespan full.makespan)
                    "probe differs from a fresh analyze";
                  let dgraph = span "sched.disjunctive" (fun () -> Sched.Disjunctive.graph_of nb) in
                  ignore
                    (span "makespan.slack" (fun () ->
                         Sched.Slack.of_weighted_graph dgraph (Makespan.Engine.mean_weights engine nb)));
                  if i mod 10 = 0 then
                    check ck
                      (span "distribution.shadow_sweep" (fun () ->
                           Shadow.check shadows.(Bool.to_int traced) engine nb))
                      "shadow sweep not bitwise-equal to Engine.eval";
                  let em = Distribution.Dist.mean full.makespan and sd = Distribution.Dist.std full.makespan in
                  ignore
                    (span "search.archive" (fun () ->
                         Search.Archive.offer archives.(Bool.to_int traced)
                           { Search.Archive.step = i; em; sigma = sd; slack = full.slack.Sched.Slack.total;
                             objective = sd; sched = nb }))))
        done;
        (* twin sessions take the same moves, so their states stay equal *)
        let commit_sessions = Array.init 2 (fun _ -> Makespan.Engine.start_session engine init) in
        for i = 1 to probe_samples () do
          let cur = Makespan.Engine.session_schedule commit_sessions.(1) in
          match draw rng cur with
          | None -> ()
          | Some mv ->
            if Option.is_some (Sched.Neighbor.apply_any_opt cur mv) then
              Recorder.twins ~off ~on i (fun traced ->
                  ignore
                    (span "makespan.commit" (fun () ->
                         Makespan.Engine.reevaluate_any ~commit:true ~max_cone:n
                           commit_sessions.(Bool.to_int traced) mv)))
        done;
        (o, before, after, wall_traced, !off, (!on /. !off) -. 1.))
  in
  let o, before, after, wall_traced, untraced_s, overhead = result in
  (* the untraced twins ran inside the root span without spans *)
  let root_us = now_us () -. t_root0 -. (untraced_s *. 1e6) in
  let spans = Recorder.spans () in
  write_file (Filename.concat out_dir (Printf.sprintf "trace-anneal-%d.json" seed)) (Recorder.to_chrome spans);
  let agg = Recorder.aggregate spans in
  let get = Recorder.find agg in
  let per_call = Recorder.per_call agg in
  let med name = median (Recorder.durs_ms agg name) in
  let s = o.Search.Anneal.stats in
  let steps_f = float_of_int s.steps_done in
  let d f = float_of_int (f after - f before) in
  let analyze_ms = Recorder.durs_ms agg "makespan.analyze.random" in
  let probe_ms = med "makespan.probe" and commit_ms = med "makespan.commit" in
  let explained_ms =
    (float_of_int (s.probes - s.accepted) *. probe_ms)
    +. (float_of_int s.accepted *. commit_ms)
    +. (float_of_int s.full_evals *. median analyze_ms)
  in
  {
    correct = n_failed ck = 0;
    attempted = s.steps_done + probe_samples ();
    failed = n_failed ck;
    metrics =
      [
        m "workloads.instantiate_ms" "ms" (per_call "workloads.instantiate" 1e-3);
        m "sched.heuristic_ms" "ms" (per_call "sched.heuristic" 1e-3);
        m "sched.disjunctive_us" "us" (per_call "sched.disjunctive" 1.);
        m "makespan.slack_us" "us" (per_call "makespan.slack" 1.);
        m "makespan.analyze_ms.random.p50" "ms" (quantile analyze_ms 0.5);
        m "makespan.analyze_ms.random.p90" "ms" (quantile analyze_ms 0.9);
        m "makespan.probe_ms" "ms" probe_ms;
        m "makespan.commit_ms" "ms" commit_ms;
        m "makespan.cone_nodes_frac" "frac"
          (ratio (d (fun s -> s.Makespan.Engine.reeval_cone_nodes))
             (d (fun s -> s.Makespan.Engine.reeval_incremental) *. float_of_int n));
        m "makespan.reeval_incremental_frac" "frac"
          (ratio (d (fun s -> s.Makespan.Engine.reeval_incremental)) (d (fun s -> s.Makespan.Engine.reevals)));
        m "makespan.task_hit_frac" "frac"
          (ratio (float_of_int after.task_hits) (float_of_int (after.task_hits + after.task_misses)));
        m "makespan.comm_hit_frac" "frac"
          (ratio (float_of_int after.comm_hits) (float_of_int (after.comm_hits + after.comm_misses)));
        m "search.accept_frac" "frac" (ratio (float_of_int s.accepted) steps_f);
        m "search.infeasible_frac" "frac" (ratio (float_of_int s.infeasible) steps_f);
        m "search.incremental_frac" "frac" (Search.Anneal.incremental_fraction s);
        m "search.full_evals_per_100" "count" (100. *. ratio (float_of_int s.full_evals) steps_f);
        m "search.archive_us" "us" (per_call "search.archive" 1.);
        m "search.unattributed_frac" "frac" (1. -. ratio explained_ms (wall_traced *. 1e3));
        m "obs.trace_overhead_frac" "frac" overhead;
        m "unattributed_frac" "frac" (ratio ((get "workload").self_us -. (untraced_s *. 1e6)) root_us);
      ]
      @ Shadow.metrics shadow;
    notes = List.map (fun f -> ("check", f)) ck.failures;
  }

(* Benchmark entry point.

     main.exe --workload campaign|anneal --seed N --seconds S
              --trace 0|1 --repro PATH
     main.exe --self-test --repro PATH

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]. Untraced runs
   ([--trace 0]) report the end-to-end metrics; traced runs report the
   per-layer metrics. The line before it records the environment. *)

open Common

let end_to_end =
  [ ("setup_s", "s"); ("peak_rss_mb", "MB"); ("ops_per_s", "1/s"); ("p50_ms", "ms"); ("tail_ms", "ms") ]

(* Every per-layer metric, in report order. A workload that does not
   exercise a layer reports it as 0 with a note saying so. *)
let per_layer =
  let fam =
    List.concat_map
      (fun f -> [ ("makespan.analyze_ms." ^ f ^ ".p50", "ms"); ("makespan.analyze_ms." ^ f ^ ".p90", "ms") ])
      [ "random"; "cholesky"; "gauss-elim" ]
  in
  let stages =
    List.concat_map
      (fun s -> [ ("service.stage." ^ s ^ ".p50_ms", "ms"); ("service.stage." ^ s ^ ".p99_ms", "ms") ])
      Service_layer.stages
  in
  [
    ("workloads.instantiate_ms", "ms");
    ("sched.random_us", "us");
    ("sched.heuristic_ms", "ms");
    ("sched.disjunctive_us", "us");
    ("distribution.add_narrow.calls", "count");
    ("distribution.add_narrow_us", "us");
    ("distribution.add_balanced.calls", "count");
    ("distribution.add_balanced_us", "us");
    ("distribution.add_const.calls", "count");
    ("distribution.max.calls", "count");
    ("distribution.max_us", "us");
    ("distribution.sweep_share", "frac");
  ]
  @ fam
  @ [
      ("makespan.lookup_us", "us");
      ("makespan.task_hit_frac", "frac");
      ("makespan.comm_hit_frac", "frac");
      ("makespan.slack_us", "us");
      ("makespan.probe_ms", "ms");
      ("makespan.commit_ms", "ms");
      ("makespan.cone_nodes_frac", "frac");
      ("makespan.reeval_incremental_frac", "frac");
      ("metrics.compute_us", "us");
      ("experiments.case_s", "s");
      ("experiments.checkpoint_ms", "ms");
      ("experiments.correlate_ms", "ms");
      ("parallel.sweep_busy_frac", "frac");
      ("search.accept_frac", "frac");
      ("search.infeasible_frac", "frac");
      ("search.incremental_frac", "frac");
      ("search.full_evals_per_100", "count");
      ("search.archive_us", "us");
      ("search.unattributed_frac", "frac");
      ("service.decode_us", "us");
      ("service.admit_ms", "ms");
      ("service.run_job_ms", "ms");
    ]
  @ stages
  @ [
      ("service.batch_mean", "count");
      ("service.engine_miss_frac", "frac");
      ("service.gen_lag_ms", "ms");
      ("obs.trace_overhead_frac", "frac");
      ("unattributed_frac", "frac");
    ]

let workloads = [ "campaign"; "anneal" ]

(* Domains and client connections each workload uses; the traced
   campaign run also drives the service. *)
let concurrency ~trace = function
  | "campaign" -> (Wl_campaign.domains, if trace then Service_layer.connections else 0)
  | _ -> (1, 0)

let run_workload ~repro ~workload ~seed ~seconds ~trace =
  match (workload, trace) with
  | "campaign", false -> Wl_campaign.untraced ~seed ~seconds
  | "campaign", true -> Wl_campaign.traced ~repro ~seed ~seconds
  | "anneal", false -> Wl_anneal.untraced ~seed ~seconds
  | "anneal", true -> Wl_anneal.traced ~seed ~seconds
  | w, _ -> invalid_arg ("unknown workload " ^ w)

(* The metrics a run must report, in order; a per-layer metric the
   workload did not measure is reported as 0 with a note. A value that is
   not finite makes the run incorrect. *)
let complete ~trace (r : result) =
  let wanted = if trace then per_layer else end_to_end in
  let metrics, notes =
    List.fold_right
      (fun (name, unit_) (ms, notes) ->
        match List.find_opt (fun x -> x.name = name) r.metrics with
        | Some x -> (x :: ms, notes)
        | None -> (m name unit_ 0. :: ms, (name, "not exercised by this workload") :: notes))
      wanted ([], [])
  in
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  let units = List.for_all2 (fun x (_, u) -> x.unit_ = u) metrics wanted in
  {
    r with
    correct = r.correct && finite && units;
    failed = (r.failed + if finite && units then 0 else 1);
    metrics = List.map (fun x -> if Float.is_finite x.value then x else { x with value = 0. }) metrics;
    notes = r.notes @ notes;
  }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Experiments.Json.escape_into b s;
  Buffer.contents b

let result_json (r : result) =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string x.name) x.value (json_string x.unit_))
          r.metrics))

let env_json ~workload ~seed ~trace ~load_before ~load_after ~steal ~(r : result) =
  let doms, conns = concurrency ~trace workload in
  Printf.sprintf
    "{\"env\": {\"workload\": %s, \"seed\": %d, \"trace\": %b, \"nproc\": %d, \"git_describe\": %s, \
     \"ocaml\": %s, \"domains\": %d, \"connections\": %d, \"loadavg_before\": %s, \"loadavg_after\": %s, \
     \"cpu_steal_frac\": %.4f, \"notes\": {%s}}}"
    (json_string workload) seed trace
    (Domain.recommended_domain_count ())
    (json_string Service.Build_info.version)
    (json_string Sys.ocaml_version) doms conns (json_string load_before) (json_string load_after) steal
    (String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ json_string v) r.notes))

let run_one ~repro ~workload ~seed ~seconds ~trace =
  mkdir_p out_dir;
  let load_before = loadavg () and steal0, total0 = cpu_jiffies () in
  let r = complete ~trace (run_workload ~repro ~workload ~seed ~seconds ~trace) in
  let steal1, total1 = cpu_jiffies () in
  let steal = ratio (steal1 -. steal0) (total1 -. total0) in
  let env = env_json ~workload ~seed ~trace ~load_before ~load_after:(loadavg ()) ~steal ~r in
  write_file
    (Filename.concat out_dir (Printf.sprintf "env-%s-%d-%d.json" workload seed (Bool.to_int trace)))
    (env ^ "\n");
  (env, r)

(* ------------------------------------------------------------------ *)
(* Self-test                                                          *)
(* ------------------------------------------------------------------ *)

(* Every workload at a tiny size, both modes: each named metric is
   emitted once with its unit and a finite value, and the outputs pass
   their checks. Then each correctness check is fed one deliberately
   corrupted output and must reject it. *)
let self_test ~repro =
  tiny := true;
  let failures = ref [] in
  let expect ok what =
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then failures := what :: !failures
  in
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let _, r = run_one ~repro ~workload ~seed:3 ~seconds:1. ~trace in
          let wanted = if trace then per_layer else end_to_end in
          let label = Printf.sprintf "%s trace=%b" workload trace in
          expect (r.correct && r.failed = 0 && r.attempted >= 1) (label ^ ": outputs pass their checks");
          expect
            (List.length r.metrics = List.length wanted
            && List.for_all2
                 (fun x (name, unit_) -> x.name = name && x.unit_ = unit_ && Float.is_finite x.value)
                 r.metrics wanted)
            (label ^ ": every metric emitted with its unit and a finite value");
          if not trace then
            expect
              (List.for_all (fun x -> x.value > 0.) r.metrics)
              (label ^ ": end-to-end metrics are positive"))
        [ false; true ])
    workloads;
  (* campaign: a perturbed row and a flipped checkpoint byte *)
  let cases = Wl_campaign.cases ~seed:3 in
  let pool = Parallel.Pool.create ~domains:1 () in
  let dir = fresh_dir "selftest-campaign" in
  let t = Wl_campaign.run_campaign ~pool ~dir cases in
  Parallel.Pool.shutdown pool;
  let accepts t = n_failed (let ck = checks () in Wl_campaign.check_campaign ck ~dir cases t; ck) = 0 in
  expect (accepts t) "campaign: clean output accepted";
  let perturbed =
    match t.results with
    | r :: rest ->
      let rows = Array.map Array.copy r.rows in
      rows.(0).(1) <- nan;
      { t with results = { r with rows } :: rest }
    | [] -> t
  in
  expect (not (accepts perturbed)) "campaign: perturbed row rejected";
  let dropped =
    match t.results with
    | r :: rest -> { t with results = { r with rows = Array.sub r.rows 1 (Array.length r.rows - 1) } :: rest }
    | [] -> t
  in
  expect (not (accepts dropped)) "campaign: missing row rejected";
  let c0 = List.hd cases in
  let copy = fresh_dir "selftest-campaign-copy" in
  let csv = Option.get (Wl_campaign.csv_of dir c0) in
  let path = Filename.concat copy (c0.id ^ ".csv") in
  write_file path csv;
  expect (Wl_campaign.same_csv dir copy c0) "campaign: identical CSV accepted";
  let flipped = Bytes.of_string csv in
  let i = Bytes.length flipped / 2 in
  Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 1));
  write_file path (Bytes.to_string flipped);
  expect (not (Wl_campaign.same_csv dir copy c0)) "campaign: flipped CSV byte rejected";
  (* anneal: a best objective off by one ulp *)
  let config = Wl_anneal.config ~seed:3 in
  let engine, init = Wl_anneal.setup () in
  let o, _, _ = Wl_anneal.anneal ~engine ~init config in
  expect (Wl_anneal.objective_verified config o) "anneal: true best objective accepted";
  expect
    (not (Wl_anneal.objective_verified config { o with best_objective = Float.succ o.best_objective }))
    "anneal: perturbed best objective rejected";
  (* shadow sweep: a shifted distribution *)
  let d = Makespan.Engine.eval engine init in
  expect (dist_bits_equal d (Makespan.Engine.eval engine init)) "shadow: equal distributions accepted";
  expect (not (dist_bits_equal d (Distribution.Dist.shift d 1e-9))) "shadow: shifted distribution rejected";
  expect (Shadow.check (Shadow.counts ()) engine init) "shadow: sweep bitwise-equal to Engine.eval";
  (* service layer: a flipped response byte *)
  let job, expected = (Service_layer.job_mix ()).(0) in
  let srv = Service_layer.start_server ~repro in
  let body =
    Fun.protect
      ~finally:(fun () -> Service_layer.stop_server srv)
      (fun () ->
        let c = Service.Client.connect ~port:srv.port () in
        let b = Service.Client.eval c job in
        Service.Client.close c;
        b)
  in
  (match body with
  | Ok body ->
    expect (Service_layer.body_ok ~expected body) "service: served body accepted";
    let b = Bytes.of_string body in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
    expect (not (Service_layer.body_ok ~expected (Bytes.to_string b))) "service: flipped response byte rejected"
  | Error e -> expect false ("service: request failed: " ^ e));
  (* BENCHMARK.json names exactly the metrics this program reports *)
  let module J = Experiments.Json in
  let listed key =
    match J.parse (read_file "BENCHMARK.json") with
    | Ok doc ->
      Option.value ~default:[]
        (Option.map
           (List.filter_map (fun e ->
                match (Option.bind (J.mem "name" e) J.str, Option.bind (J.mem "unit" e) J.str) with
                | Some n, Some u -> Some (n, u)
                | Some n, None -> Some (n, "")
                | _ -> None))
           (Option.bind (J.mem key doc) J.list_))
    | Error _ | (exception Sys_error _) -> []
  in
  expect (listed "end_to_end" = end_to_end) "BENCHMARK.json end_to_end matches the reported metrics";
  expect (listed "per_layer" = per_layer) "BENCHMARK.json per_layer matches the reported metrics";
  expect
    (List.for_all (fun (w, _) -> List.mem w workloads) (listed "workloads") && listed "workloads" <> [])
    "BENCHMARK.json workloads are known";
  if !failures = [] then (print_endline "self-test passed"; 0)
  else (Printf.printf "self-test FAILED: %d check(s)\n" (List.length !failures); 1)

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)
(* ------------------------------------------------------------------ *)

let usage =
  "main.exe --workload campaign|anneal --seed N --seconds S --trace 0|1 --repro PATH\n\
   main.exe --self-test --repro PATH"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let repro = ref "_build/default/bin/repro.exe" and selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--repro", Arg.Set_string repro, "PATH repro executable (service layer)");
      ("--self-test", Arg.Set selftest, " run the benchmark self-test");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !selftest then exit (self_test ~repro:!repro);
  if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) || !seconds <= 0. then begin
    prerr_endline usage;
    exit 2
  end;
  let env, r =
    run_one ~repro:!repro ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  in
  print_endline env;
  print_endline (result_json r)

(* Benchmark & reproduction harness.

   Running `dune exec bench/main.exe` does two things:

   1. Regenerates every table/figure of the paper (Figs. 1-9 plus the
      §V/§VII in-text results) at the ambient REPRO_SCALE — defaulting to
      "smoke" here so the whole run stays in the minutes range; set
      REPRO_SCALE=small or =full for higher-fidelity sweeps (the `repro`
      binary defaults to "small").

   2. Times, with Bechamel, one kernel per figure — the computational
      core that regenerates it — plus the layers they are built from
      (distribution sum/max, convolution, the domain pool, the engine's
      full and incremental sweeps, the scheduling heuristics, the
      annealer, telemetry overhead), and writes every number to one
      record, BENCH_kernels.json.

   `dune exec bench/main.exe -- --perf-smoke` skips step 1 and times the
   hot-layer kernels only; it writes the same record with fewer
   entries. *)

open Bechamel
open Toolkit
module E = Experiments

let scale =
  match Sys.getenv_opt "REPRO_SCALE" with
  | Some _ -> E.Scale.of_env ()
  | None -> E.Scale.smoke

(* ------------------------------------------------------------------ *)
(* Part 1: figure reproduction                                          *)
(* ------------------------------------------------------------------ *)

let reproduce () =
  let sep title =
    Printf.printf "\n================ %s ================\n\n%!" title
  in
  Printf.printf "Reproduction at scale %S (schedules /%d, Monte-Carlo /%d)\n%!"
    scale.E.Scale.name scale.E.Scale.schedule_divisor scale.E.Scale.mc_divisor;
  sep "Fig. 1";
  print_string (E.Fig1.render (E.Fig1.run ~scale ()));
  sep "Fig. 2";
  print_string (E.Fig2.render (E.Fig2.run ~scale ()));
  sep "Fig. 3";
  print_string (E.Fig_corr.render (E.Fig_corr.run ~scale E.Fig_corr.fig3));
  sep "Fig. 4";
  print_string (E.Fig_corr.render (E.Fig_corr.run ~scale E.Fig_corr.fig4));
  sep "Fig. 5";
  print_string (E.Fig_corr.render (E.Fig_corr.run ~scale E.Fig_corr.fig5));
  sep "Fig. 6 (+ §VII in-text)";
  let fig6 = E.Fig6.run ~scale () in
  print_string (E.Fig6.render fig6);
  print_newline ();
  print_string (E.Intext.render_rel_prob (E.Intext.rel_prob_vs_std fig6.E.Fig6.results));
  sep "Fig. 7";
  print_string (E.Fig7.render (E.Fig7.run ()));
  sep "Fig. 8";
  print_string (E.Fig8.render (E.Fig8.run ()));
  sep "Fig. 9";
  print_string (E.Fig9.render (E.Fig9.run ()));
  sep "In-text: evaluation methods vs Monte Carlo";
  print_string (E.Intext.render_methods (E.Intext.methods_vs_mc ~scale ()));
  sep "Extensions (§VIII future work)";
  print_string
    (E.Ablation.render_correlation (E.Ablation.correlation_under_variable_ul ~scale ()));
  print_newline ();
  print_string (E.Ablation.render_shapes (E.Ablation.cluster_under_shapes ~scale ()));
  print_newline ();
  print_string (E.Ablation.render_tradeoff (E.Ablation.robust_heft_tradeoff ()));
  print_newline ();
  print_string (E.Ablation.render_pareto (E.Ablation.pareto_front_study ~scale ()))

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel kernels                                             *)
(* ------------------------------------------------------------------ *)

(* shared fixtures, built once *)
let model = Workloads.Stochastify.make ~ul:1.1 ()

let fixture kind n_target n_procs ul =
  let case = E.Case.make ~kind ~n_target ~n_procs ~ul () in
  let inst = E.Case.instantiate case in
  let rng = Prng.Xoshiro.create 99L in
  let sched = Sched.Random_sched.generate ~rng ~graph:inst.E.Case.graph ~n_procs in
  (inst, sched)

let cholesky10 = lazy (fixture E.Case.Cholesky 10 3 1.01)
let random30 = lazy (fixture E.Case.Random_graph 30 8 1.01)
let gauss103 = lazy (fixture E.Case.Gauss_elim 103 16 1.1)

let metric_vector (inst, sched) =
  Metrics.Robustness.to_array
    (Metrics.Robustness.of_schedule sched inst.E.Case.platform inst.E.Case.model)

let precomputed_rows =
  lazy
    (let inst, _ = Lazy.force cholesky10 in
     let rng = Prng.Xoshiro.create 4L in
     let scheds =
       Sched.Random_sched.generate_many ~rng ~graph:inst.E.Case.graph ~n_procs:3 ~count:64
     in
     Array.of_list
       (List.map
          (fun s ->
            Metrics.Robustness.to_array
              (Metrics.Robustness.of_schedule s inst.E.Case.platform inst.E.Case.model))
          scheds))

let special = lazy (Distribution.Family.special ())

(* engine fixtures: a batch of schedules of ONE case, the
   usage pattern of the experiment sweeps (the engine is created once per
   case and amortizes its distribution caches across the batch) *)
let batch_size = 8

let sched_batch =
  lazy
    (let inst, _ = Lazy.force random30 in
     let rng = Prng.Xoshiro.create 31L in
     let scheds =
       Sched.Random_sched.generate_many ~rng ~graph:inst.E.Case.graph ~n_procs:8
         ~count:batch_size
     in
     (inst, Array.of_list scheds))

let shared_engine =
  lazy
    (let inst, _ = Lazy.force random30 in
     Makespan.Engine.create ~graph:inst.E.Case.graph ~platform:inst.E.Case.platform
       ~model:inst.E.Case.model)

(* incremental-session fixture: a warm session over the first schedule
   of the random30 batch plus a small-cone single move — the last exit
   task reassigned to the next processor (appending a sink is always
   acyclic, and its cone stays small: the task itself plus the
   disjunctive tail of the target row) *)
let reeval_fixture =
  lazy
    (let inst, _ = Lazy.force random30 in
     let _, scheds = Lazy.force sched_batch in
     let sched = scheds.(0) in
     let session = Makespan.Engine.start_session (Lazy.force shared_engine) sched in
     let exits = Dag.Graph.exits inst.E.Case.graph in
     let task = exits.(Array.length exits - 1) in
     let to_ = (sched.Sched.Schedule.proc_of.(task) + 1) mod 8 in
     let move = Sched.Neighbor.Reassign (Sched.Neighbor.make ~task ~to_ ()) in
     ignore (Makespan.Engine.reevaluate_any ~commit:false session move);
     (session, move))

let mc_batch fx count =
  let inst, sched = fx in
  Makespan.Montecarlo.realizations ~domains:1 ~rng:(Prng.Xoshiro.create 7L) ~count sched
    inst.E.Case.platform inst.E.Case.model

(* a fresh engine per call, so a kernel measures uncached evaluation *)
let cold_eval ?backend (inst, sched) =
  let engine =
    Makespan.Engine.create ~graph:inst.E.Case.graph ~platform:inst.E.Case.platform ~model
  in
  Makespan.Engine.eval ?backend engine sched

(* one Test.make per table/figure *)
let figure_tests =
  [
    Test.make ~name:"fig1:classical-vs-mc-ks"
      (Staged.stage (fun () ->
           let d = cold_eval (Lazy.force cholesky10) in
           let samples = mc_batch (Lazy.force cholesky10) 500 in
           ignore
             (Stats.Distance.ks (Analytic d)
                (Sampled (Distribution.Empirical.of_samples samples)))));
    Test.make ~name:"fig2:empirical-density"
      (Staged.stage (fun () ->
           let samples = mc_batch (Lazy.force cholesky10) 1000 in
           let e = Distribution.Empirical.of_samples samples in
           ignore (Distribution.Empirical.to_dist e)));
    Test.make ~name:"fig3:metric-vector-cholesky10"
      (Staged.stage (fun () -> ignore (metric_vector (Lazy.force cholesky10))));
    Test.make ~name:"fig4:metric-vector-random30"
      (Staged.stage (fun () -> ignore (metric_vector (Lazy.force random30))));
    Test.make ~name:"fig5:metric-vector-gauss103"
      (Staged.stage (fun () -> ignore (metric_vector (Lazy.force gauss103))));
    Test.make ~name:"fig6:pearson-matrix-8x8"
      (Staged.stage (fun () -> ignore (E.Correlate.matrix (Lazy.force precomputed_rows))));
    Test.make ~name:"fig7:special-distribution"
      (Staged.stage (fun () ->
           let d = Distribution.Family.special () in
           ignore (Distribution.Dist.mean d, Distribution.Dist.std d)));
    Test.make ~name:"fig8:self-sum-plus-ks"
      (Staged.stage (fun () ->
           let s = Lazy.force special in
           let sum = Distribution.Dist.add s s in
           let n =
             Distribution.Family.normal ~mean:(Distribution.Dist.mean sum)
               ~std:(Distribution.Dist.std sum) ()
           in
           ignore (Stats.Distance.ks (Analytic sum) (Analytic n))));
    Test.make ~name:"fig9:four-join-schedules"
      (Staged.stage (fun () -> ignore (E.Fig9.run ~n_tasks:8 ())));
    Test.make ~name:"intext:relprob-pearson"
      (Staged.stage (fun () ->
           let rows = Lazy.force precomputed_rows in
           let xs = Array.map (fun r -> r.(0) /. Float.max 1e-12 r.(7)) rows in
           let ys = Array.map (fun r -> r.(1)) rows in
           ignore (Stats.Correlation.pearson xs ys)));
  ]

(* the engine's per-case cache at work: full metric vectors for a batch
   of schedules of one case through the shared engine vs a one-shot
   engine per schedule *)
let engine_tests =
  [
    Test.make ~name:"engine:metrics-batch8"
      (Staged.stage (fun () ->
           let _, scheds = Lazy.force sched_batch in
           let engine = Lazy.force shared_engine in
           Array.iter
             (fun s ->
               ignore
                 (Metrics.Robustness.to_array (Metrics.Robustness.of_engine engine s)))
             scheds));
    Test.make ~name:"legacy:metrics-batch8"
      (Staged.stage (fun () ->
           let inst, scheds = Lazy.force sched_batch in
           Array.iter
             (fun s ->
               ignore
                 (Metrics.Robustness.to_array
                    (Metrics.Robustness.of_schedule s inst.E.Case.platform
                       inst.E.Case.model)))
             scheds));
  ]

(* telemetry overhead: the identical warm-cache engine eval with sinks
   off, metrics on, and tracing on. The Obs contract is that the off
   state costs one atomic load per probe, so "obs:eval-sinks-off"
   should stay within noise (< 2%) of the untouched baseline. *)
(* a small warm-cache fixture: per-run cost is tens of µs, so Bechamel
   gets thousands of samples inside its quota and the overhead entry
   measures probe cost rather than run-to-run noise *)
let obs_fixture =
  lazy
    (let inst, sched = Lazy.force cholesky10 in
     let engine =
       Makespan.Engine.create ~graph:inst.E.Case.graph ~platform:inst.E.Case.platform
         ~model:inst.E.Case.model
     in
     ignore (Makespan.Engine.eval engine sched);
     (engine, sched))

let eval_batch () =
  let engine, sched = Lazy.force obs_fixture in
  ignore (Makespan.Engine.eval engine sched)

let with_sinks ~metrics ~spans f () =
  Obs.Metrics.set_enabled metrics;
  Obs.Span.set_enabled spans;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Span.set_enabled false)
    f

let obs_tests =
  [
    Test.make ~name:"obs:eval-baseline" (Staged.stage eval_batch);
    Test.make ~name:"obs:eval-sinks-off"
      (Staged.stage (with_sinks ~metrics:false ~spans:false eval_batch));
    Test.make ~name:"obs:eval-metrics-on"
      (Staged.stage (with_sinks ~metrics:true ~spans:false eval_batch));
    Test.make ~name:"obs:eval-trace-on"
      (Staged.stage (with_sinks ~metrics:true ~spans:true eval_batch));
  ]

(* substrate kernels; the scheduling heuristics are timed once each, by
   the sched:* kernels below *)
let substrate_tests =
  let u = Distribution.Family.uncertain ~ul:1.1 20. in
  [
    Test.make ~name:"substrate:fft-conv-256"
      (let a = Array.init 256 (fun i -> sin (float_of_int i)) in
       Staged.stage (fun () -> ignore (Numerics.Convolution.fft a a)));
    Test.make ~name:"substrate:dist-max"
      (Staged.stage (fun () -> ignore (Distribution.Dist.max_indep u u)));
    Test.make ~name:"substrate:mc-100-realizations"
      (Staged.stage (fun () -> ignore (mc_batch (Lazy.force cholesky10) 100)));
    Test.make ~name:"substrate:random-schedule"
      (let rng = Prng.Xoshiro.create 1L in
       Staged.stage (fun () ->
           let inst, _ = Lazy.force random30 in
           ignore (Sched.Random_sched.generate ~rng ~graph:inst.E.Case.graph ~n_procs:8)));
    Test.make ~name:"substrate:dodin-reduce"
      (Staged.stage (fun () ->
           ignore (cold_eval ~backend:Makespan.Engine.Dodin (Lazy.force cholesky10))));
    Test.make ~name:"substrate:slack"
      (Staged.stage (fun () ->
           let inst, sched = Lazy.force gauss103 in
           ignore (Sched.Slack.compute sched inst.E.Case.platform inst.E.Case.model)));
  ]

(* one kernel per registry entry, all on the random30/p8 case *)
let sched_tests =
  List.map
    (fun e ->
      Test.make ~name:("sched:" ^ e.Sched.Registry.name)
        (Staged.stage (fun () ->
             let inst, _ = Lazy.force random30 in
             ignore (e.Sched.Registry.run inst.E.Case.graph inst.E.Case.platform))))
    Sched.Registry.entries

(* distribution/convolution/pool kernels: the zero-allocation hot layer *)
let uncertain = lazy (Distribution.Family.uncertain ~ul:1.1 20.)

(* a wide partial like the mid-sweep completion distributions: ~12× the
   support of one operand, so summing one more operand takes the k-point
   path *)
let wide_partial =
  lazy
    (let u = Lazy.force uncertain in
     let d = ref u in
     for _ = 1 to 12 do
       d := Distribution.Dist.add !d u
     done;
     !d)

let dist_tests =
  [
    (* a direct-size sum (64×64 ≤ the 4096-cell cutoff below which
       [Convolution.auto_into] runs the direct kernel), end to end:
       sample, direct convolution, grid rebuild *)
    Test.make ~name:"dist:add-full-64x64"
      (Staged.stage (fun () ->
           let u = Lazy.force uncertain in
           ignore (Distribution.Dist.add u u)));
    Test.make ~name:"dist:add-kpoint"
      (Staged.stage (fun () ->
           let w = Lazy.force wide_partial and u = Lazy.force uncertain in
           ignore (Distribution.Dist.add w u)));
    Test.make ~name:"dist:max-indep-64x64"
      (Staged.stage (fun () ->
           let u = Lazy.force uncertain in
           ignore
             (Distribution.Dist.max_indep u (Distribution.Dist.shift u 2.))));
    Test.make ~name:"dist:trim-64"
      (Staged.stage (fun () ->
           let w = Lazy.force wide_partial in
           ignore (Distribution.Dist.trim w)));
    Test.make ~name:"dist:resample-64"
      (Staged.stage (fun () ->
           let u = Lazy.force uncertain in
           ignore (Distribution.Dist.resample ~points:64 u)));
    Test.make ~name:"dist:mean-std"
      (Staged.stage (fun () ->
           let w = Lazy.force wide_partial in
           ignore (Distribution.Dist.mean w +. Distribution.Dist.std w)));
    (* a 12-sum convolution chain, the shape of a long path through the
       DAG: every step adds one more operand to the growing partial *)
    Test.make ~name:"conv:exact-chain"
      (Staged.stage (fun () ->
           let u = Lazy.force uncertain in
           let d = ref u in
           for _ = 1 to 12 do
             d := Distribution.Dist.add !d u
           done;
           ignore !d));
  ]

(* a full warm eval of the 8-schedule batch vs a single-move incremental
   re-evaluation on the warm session: their ratio is the re-eval speedup *)
let reeval_tests =
  [
    Test.make ~name:"engine:classical-batch8"
      (Staged.stage (fun () ->
           let _, scheds = Lazy.force sched_batch in
           let engine = Lazy.force shared_engine in
           Array.iter (fun s -> ignore (Makespan.Engine.eval engine s)) scheds));
    Test.make ~name:"engine:reeval-1move"
      (Staged.stage (fun () ->
           let session, move = Lazy.force reeval_fixture in
           ignore (Makespan.Engine.reevaluate_any ~commit:false session move)));
  ]

(* robustness-aware search: one short annealing run per Bechamel run (the
   whole probe/accept/frontier loop, sessions included) plus the raw swap
   probe on a warm session. The first gives moves/sec; the incremental
   share and frontier size come from one deterministic run, not from
   timing. *)
let search_steps_per_run = 32

let heft_init inst =
  match Sched.Registry.parse "HEFT" with
  | Ok e -> e.Sched.Registry.run inst.E.Case.graph inst.E.Case.platform
  | Error e -> failwith e

let search_engine =
  lazy
    (let inst, _ = Lazy.force random30 in
     Makespan.Engine.create ~graph:inst.E.Case.graph ~platform:inst.E.Case.platform
       ~model:inst.E.Case.model)

(* warm session + one precomputed feasible swap, the swap analogue of
   reeval_fixture *)
let swap_fixture =
  lazy
    (let _, scheds = Lazy.force sched_batch in
     let sched = scheds.(0) in
     let session = Makespan.Engine.start_session (Lazy.force search_engine) sched in
     let rng = Prng.Xoshiro.create 17L in
     let swap =
       match Sched.Neighbor.random_swap ~rng sched with
       | Some s -> Sched.Neighbor.Swap s
       | None -> failwith "bench: no feasible swap on random30"
     in
     ignore (Makespan.Engine.reevaluate_any ~commit:false session swap);
     (session, swap))

let search_tests =
  [
    Test.make ~name:"search:probe-swap"
      (Staged.stage (fun () ->
           let session, swap = Lazy.force swap_fixture in
           ignore (Makespan.Engine.reevaluate_any ~commit:false session swap)));
    Test.make ~name:"search:anneal-32step"
      (Staged.stage (fun () ->
           let inst, _ = Lazy.force random30 in
           let engine = Lazy.force search_engine in
           let init = heft_init inst in
           ignore
             (Search.Anneal.run ~engine ~init
                { Search.Anneal.default with steps = search_steps_per_run; seed = 9L })));
  ]

let conv_tests =
  let mk n = Array.init n (fun i -> 1. +. sin (float_of_int i)) in
  let a512 = mk 512 and b512 = mk 512 in
  let long = mk 2048 and kernel = mk 17 in
  let out = Array.make 4096 0. in
  [
    Test.make ~name:"conv:direct-512x512"
      (Staged.stage (fun () ->
           Numerics.Convolution.direct_into ~out a512 512 b512 512));
    Test.make ~name:"conv:fft-512x512"
      (Staged.stage (fun () -> Numerics.Convolution.fft_into ~out a512 512 b512 512));
    Test.make ~name:"conv:packed-512x512"
      (Staged.stage (fun () ->
           Numerics.Convolution.fft_packed_into ~out a512 512 b512 512));
    Test.make ~name:"conv:overlap-add-2048x17"
      (Staged.stage (fun () ->
           Numerics.Convolution.overlap_add_into ~out long 2048 kernel 17));
  ]

let bench_pool = lazy (Parallel.Pool.create ~domains:2 ())

let pool_tests =
  [
    Test.make ~name:"pool:persistent-run32"
      (Staged.stage (fun () ->
           Parallel.Pool.run ~pool:(Lazy.force bench_pool) ~chunks:32 (fun c ->
               ignore (Sys.opaque_identity (c * c)))));
    Test.make ~name:"pool:oneshot-run32"
      (Staged.stage (fun () ->
           Parallel.Pool.run ~domains:2 ~chunks:32 (fun c ->
               ignore (Sys.opaque_identity (c * c)))));
  ]

(* ------------------------------------------------------------------ *)
(* Part 3: the record, BENCH_kernels.json                              *)
(* ------------------------------------------------------------------ *)

(* One row of the record. [layer] is the kernel-name prefix with any
   figure number dropped ("fig6:..." is layer "fig"); [n] is the number
   of Bechamel samples behind [value], or 1 for a deterministic count.
   [(name, unit)] is unique within a record. *)
type entry = { layer : string; name : string; unit : string; value : float; n : int }

let layer_of name =
  let prefix =
    match String.index_opt name ':' with Some i -> String.sub name 0 i | None -> name
  in
  let k = ref (String.length prefix) in
  while !k > 0 && prefix.[!k - 1] >= '0' && prefix.[!k - 1] <= '9' do
    decr k
  done;
  String.sub prefix 0 !k

let entry ?(n = 1) name unit value = { layer = layer_of name; name; unit; value; n }

let pretty_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns > 1e9 then Printf.sprintf "%8.3f  s" (ns /. 1e9)
  else if ns > 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%8.3f µs" (ns /. 1e3)
  else Printf.sprintf "%8.0f ns" ns

(* Bechamel's [Instance.minor_allocated] reads [Gc.quick_stat], whose
   minor-word count OCaml 5 advances only at a minor collection, so a
   kernel that allocates less than a minor heap per sample reads 0. This
   measure reads the calling domain's exact counter instead. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "words"
end

let minor_words =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

(* One protocol and one clock for every kernel: Bechamel samples the
   monotonic clock and the minor-word counter together, and an OLS fit
   against the run count gives ns and minor words per run. *)
let run_kernels cfg tests =
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instances = [ Instance.monotonic_clock; minor_words ] in
  List.concat_map
    (fun elt ->
      let raw = Benchmark.run cfg instances elt in
      let per_run instance =
        match Analyze.OLS.estimates (Analyze.one ols instance raw) with
        | Some [ v ] -> v
        | _ -> Float.nan
      in
      let name = Test.Elt.name elt and n = raw.Benchmark.stats.Benchmark.samples in
      let ns = per_run Instance.monotonic_clock in
      let words = per_run minor_words in
      Printf.printf "%-36s  %14s  %14.0f\n%!" name (pretty_ns ns) words;
      [ entry ~n name "ns/run" ns; entry ~n name "minor-words/run" words ])
    (List.concat_map Test.elements tests)

let kernel_header title =
  Printf.printf "\n================ %s ================\n\n" title;
  Printf.printf "%-36s  %14s  %14s\n" "kernel" "time/run" "minor words/run";
  Printf.printf "%s\n%!" (String.make 68 '-')

(* The derived numbers that CI or the docs cite, each from kernels of
   this run (and skipped when one of them was not run), plus the
   deterministic counts of one 256-step anneal. *)
let derived kernels =
  let ns name =
    List.find_opt (fun e -> e.name = name && e.unit = "ns/run") kernels
  in
  let ratio a b name unit f =
    match (ns a, ns b) with
    | Some a, Some b -> [ entry ~n:(min a.n b.n) name unit (f a.value b.value) ]
    | _ -> []
  in
  let counts =
    let inst, _ = Lazy.force random30 in
    let outcome =
      Search.Anneal.run ~engine:(Lazy.force search_engine) ~init:(heft_init inst)
        { Search.Anneal.default with steps = 256 }
    in
    [
      entry "search:incremental-frac" "frac"
        (Search.Anneal.incremental_fraction outcome.Search.Anneal.stats);
      entry "search:frontier-size" "count"
        (float_of_int (Search.Archive.size outcome.Search.Anneal.frontier));
    ]
  in
  (match ns "search:anneal-32step" with
  | Some a ->
    [
      entry ~n:a.n "search:moves-per-sec" "moves/s"
        (float_of_int search_steps_per_run /. (a.value *. 1e-9));
    ]
  | None -> [])
  @ counts
  @ ratio "engine:classical-batch8" "engine:reeval-1move" "engine:reeval-1move-speedup" "x"
      (fun batch reeval -> batch /. float_of_int batch_size /. reeval)
  @ ratio "obs:eval-baseline" "obs:eval-sinks-off" "obs:sinks-off-overhead" "frac"
      (fun base off -> (off -. base) /. base)

(* Hand-rolled JSON: the project deliberately has no JSON dependency.
   [commit] is the `git describe` stamp the service reports too. *)
let write_record entries =
  let row e =
    Printf.sprintf
      "    { \"layer\": %S, \"name\": %S, \"unit\": %S, \"value\": %s, \"n\": %d }"
      e.layer e.name e.unit
      (if Float.is_finite e.value then Printf.sprintf "%.4f" e.value else "null")
      e.n
  in
  let oc = open_out "BENCH_kernels.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"bench-kernels/1\",\n\
    \  \"commit\": %S,\n\
    \  \"cores\": %d,\n\
    \  \"scale\": %S,\n\
    \  \"entries\": [\n%s\n  ]\n\
     }\n"
    Service.Build_info.version
    (Domain.recommended_domain_count ())
    scale.E.Scale.name
    (String.concat ",\n" (List.map row entries));
  close_out oc;
  Printf.printf "\n[wrote BENCH_kernels.json: %d entries]\n%!" (List.length entries)

let short_cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) ~kde:None ()

(* the obs kernels measure overheads expected to sit near zero, so they
   get a longer quota and GC stabilization to push sampling noise below
   the effect we are looking for *)
let obs_cfg = Benchmark.cfg ~limit:3000 ~quota:(Time.second 1.5) ~stabilize:true ~kde:None ()

(* The full run reproduces every figure, then times every kernel.
   `--perf-smoke` (the CI fast path) skips the figures and times the
   dist/conv/pool/sched/re-eval/search kernels only. Both write
   BENCH_kernels.json. *)
let () =
  let smoke = Array.exists (fun a -> a = "--perf-smoke") Sys.argv in
  let hot = dist_tests @ conv_tests @ pool_tests @ sched_tests @ reeval_tests @ search_tests in
  let kernels =
    if smoke then begin
      kernel_header "perf smoke (dist/conv/pool/sched/reeval/search)";
      run_kernels short_cfg hot
    end
    else begin
      reproduce ();
      kernel_header "Bechamel kernels";
      let timed = run_kernels short_cfg (figure_tests @ engine_tests @ substrate_tests @ hot) in
      timed @ run_kernels obs_cfg obs_tests
    end
  in
  write_record (kernels @ derived kernels);
  Parallel.Pool.shutdown (Lazy.force bench_pool)

(* The service layer, measured in the traced [campaign] run: a job mix
   through [Service.Proto] offline, then [repro serve] (one worker shard)
   in its own process driven open-loop at a fixed reference rate, its
   [/metrics] read once at the end.

   The job mix: small named Cholesky jobs shaped like
   [Loadgen.default_job] (n=10, 3 procs, HEFT + 20 random schedules) on
   fixed cases, over more batch keys than a shard's 8-engine LRU holds,
   so both warm hits and cold admissions occur; a share of the jobs add
   [neighbor] specs, so the makespan layer also runs through incremental
   sessions. The jobs are fixed; the seed draws the request stream: the
   arrival times, the hot key of each request and its job. Every response
   is compared byte-for-byte with offline [Service.Proto.eval]. *)

open Common
module Proto = Service.Proto

type plan = {
  keys : int;
  hot_keys : int;  (* keys 0 .. hot_keys-1 serve all but every [cold_every]th request *)
  cold_every : int;
  variants : int;  (* distinct jobs per key *)
  rate : float;  (* requests/s *)
  requests : int;
}

let full = { keys = 10; hot_keys = 7; cold_every = 100; variants = 3; rate = 10.; requests = 100 }
let small = { full with keys = 2; hot_keys = 1; requests = 20 }
let plan () = if !tiny then small else full

let connections = 2

(* ------------------------------------------------------------------ *)
(* Job mix                                                            *)
(* ------------------------------------------------------------------ *)

let base_job ~wseed ~rseed =
  {
    (Service.Loadgen.default_job ()) with
    Proto.workload =
      Proto.Named { kind = Experiments.Case.Cholesky; n = 10; procs = 3; seed = wseed };
    schedules = [ Proto.Heuristic "HEFT"; Proto.Random { count = 20; seed = rseed } ];
  }

(* Distinct jobs with their offline response bytes, [variants] per key
   in key order. The last variant of each key also carries two one-move
   neighbors of its HEFT schedule, drawn by [Sched.Neighbor.random] so
   they are feasible. *)
let job_mix () =
  let plan = plan () in
  let rng = Prng.Xoshiro.create 0x5e7eL in
  let eval job =
    match Proto.eval job with Ok body -> (job, body) | Error e -> failwith ("service job mix: " ^ e)
  in
  List.concat_map
    (fun k ->
      let wseed = Int64.of_int (k + 1) in
      List.init plan.variants (fun v ->
          let job = base_job ~wseed ~rseed:(Prng.Xoshiro.next rng) in
          if v < plan.variants - 1 then eval job
          else
            match Proto.context_of_job job with
            | Error e -> failwith ("service job mix: " ^ e)
            | Ok ctx ->
              let heft = Common.heft ctx.graph ctx.platform in
              let neighbor () =
                let mv = Sched.Neighbor.random ~rng heft in
                Proto.Neighbor { base = "HEFT"; task = mv.task; to_ = mv.to_; at = mv.at }
              in
              eval { job with Proto.schedules = job.Proto.schedules @ [ neighbor (); neighbor () ] }))
    (List.init plan.keys Fun.id)
  |> Array.of_list

(* A served body is correct only when it is byte-equal to the offline
   document. *)
let body_ok ~expected body = String.equal body expected

(* ------------------------------------------------------------------ *)
(* Server process                                                     *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; port : int }

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> failwith "free_port")

let stop_server srv =
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] srv.pid)

let start_server ~repro =
  let port = free_port () in
  let log = Unix.openfile (Filename.concat out_dir "serve.log") [ Unix.O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process repro
      [| repro; "serve"; "--port"; string_of_int port; "--conns"; string_of_int connections |]
      null log log
  in
  Unix.close log;
  Unix.close null;
  let srv = { pid; port } in
  let deadline = now_s () +. 20. in
  let rec wait () =
    let c = Service.Client.connect ~port ~timeout_s:2. () in
    let ok = try Result.is_ok (Service.Client.healthz c) with Unix.Unix_error _ -> false in
    Service.Client.close c;
    if ok then srv
    else if now_s () > deadline then begin
      stop_server srv;
      failwith "serve: server did not become healthy"
    end
    else begin
      Unix.sleepf 0.01;
      wait ()
    end
  in
  wait ()

(* Server start plus one request per hot batch key. *)
let setup ~repro jobs =
  let plan = plan () in
  let srv = start_server ~repro in
  let c = Service.Client.connect ~port:srv.port () in
  for k = 0 to plan.hot_keys - 1 do
    ignore (Service.Client.eval c (fst jobs.(k * plan.variants)))
  done;
  Service.Client.close c;
  srv

(* ------------------------------------------------------------------ *)
(* Open-loop load generator                                           *)
(* ------------------------------------------------------------------ *)

(* How late each request was sent after its scheduled time, and whether
   its response was byte-equal to the offline one. *)
type sample = { lag_ms : float; ok : bool }

(* [n] requests with Poisson arrivals at [rate], claimed through a shared
   cursor by [connections] client domains. *)
let drive ~port ~rng ~rate ~n jobs =
  let plan = plan () in
  let offsets = Array.make n 0. and pick = Array.make n 0 in
  let t = ref 0. in
  for i = 0 to n - 1 do
    t := !t -. (log (Prng.Xoshiro.next_float_pos rng) /. rate);
    offsets.(i) <- !t;
    let key =
      if i mod plan.cold_every = plan.cold_every - 1 then
        plan.hot_keys + (i / plan.cold_every mod (plan.keys - plan.hot_keys))
      else Prng.Xoshiro.int rng plan.hot_keys
    in
    pick.(i) <- (key * plan.variants) + Prng.Xoshiro.int rng plan.variants
  done;
  let cursor = Atomic.make 0 in
  let out = Array.make n { lag_ms = nan; ok = false } in
  let t_start = now_s () +. 0.005 in
  let worker () =
    let c = Service.Client.connect ~port () in
    let rec go () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        let target = t_start +. offsets.(i) in
        let wait = target -. now_s () in
        if wait > 0. then Unix.sleepf wait;
        let lag_ms = (now_s () -. target) *. 1e3 in
        let job, expected = jobs.(pick.(i)) in
        let ok = match Service.Client.eval c job with Ok body -> body_ok ~expected body | Error _ -> false in
        out.(i) <- { lag_ms; ok };
        go ()
      end
    in
    go ();
    Service.Client.close c
  in
  List.iter Domain.join (List.init connections (fun _ -> Domain.spawn worker));
  Array.to_list out

(* ------------------------------------------------------------------ *)
(* Server metrics                                                     *)
(* ------------------------------------------------------------------ *)

module J = Experiments.Json

let num_of j = Option.bind j J.to_float

(* Quantile of a bucketed histogram from the server's JSON /metrics,
   interpolated linearly inside the bucket that holds it. *)
let hist_quantile ~bounds ~counts q =
  let total = Array.fold_left ( +. ) 0. counts in
  if total = 0. then 0.
  else begin
    let target = q *. total in
    let rec go i cum =
      if i >= Array.length counts then bounds.(Array.length bounds - 1)
      else
        let c = counts.(i) in
        if cum +. c >= target && c > 0. then
          let lo = if i = 0 then 0. else bounds.(i - 1) in
          let hi = if i < Array.length bounds then bounds.(i) else lo in
          lo +. ((hi -. lo) *. (target -. cum) /. c)
        else go (i + 1) (cum +. c)
    in
    go 0 0.
  end

let stages = [ "parse"; "decode"; "queue"; "batch"; "admit"; "eval"; "encode"; "write" ]

let floats j =
  Option.value ~default:[||]
    (Option.map (fun l -> Array.of_list (List.filter_map J.to_float l)) (Option.bind j J.list_))

(* Stage quantiles (merged over shards), mean batch size and the engine
   LRU miss share, read once from GET /metrics. *)
let server_metrics ~port =
  let c = Service.Client.connect ~port () in
  let body =
    match Service.Client.get c "/metrics" with Ok r -> r.Service.Http.body | Error _ -> "{}"
  in
  Service.Client.close c;
  let doc = match J.parse body with Ok d -> d | Error _ -> J.Obj [] in
  let hists = match Option.bind (J.mem "obs" doc) (J.mem "histograms") with Some (J.Obj l) -> l | _ -> [] in
  let merged prefix =
    List.fold_left
      (fun acc (name, h) ->
        if String.starts_with ~prefix name then
          let bounds = floats (J.mem "bounds" h) and counts = floats (J.mem "counts" h) in
          match acc with
          | None -> Some (bounds, counts)
          | Some (b, c0) -> Some (b, Array.mapi (fun i x -> x +. counts.(i)) c0)
        else acc)
      None hists
  in
  let stage_metrics =
    List.concat_map
      (fun st ->
        let bounds, counts =
          Option.value ~default:([| 0. |], [| 0. |])
            (merged (Printf.sprintf "service.stage_seconds{stage=\"%s\"" st))
        in
        [
          m (Printf.sprintf "service.stage.%s.p50_ms" st) "ms" (1e3 *. hist_quantile ~bounds ~counts 0.5);
          m (Printf.sprintf "service.stage.%s.p99_ms" st) "ms" (1e3 *. hist_quantile ~bounds ~counts 0.99);
        ])
      stages
  in
  let batch =
    List.assoc_opt "service.batch_size" hists |> Option.fold ~none:0. ~some:(fun h ->
        ratio (Option.value ~default:0. (num_of (J.mem "sum" h))) (Option.value ~default:0. (num_of (J.mem "total" h))))
  in
  let svc k = Option.value ~default:0. (num_of (Option.bind (J.mem "service" doc) (J.mem k))) in
  stage_metrics
  @ [
      m "service.batch_mean" "count" batch;
      m "service.engine_miss_frac" "frac" (ratio (svc "engines_created") (svc "batches"));
    ]

(* ------------------------------------------------------------------ *)
(* Measurement                                                        *)
(* ------------------------------------------------------------------ *)

(* Decode, admission and evaluation of every job through the service
   protocol offline, in spans, each response compared with the expected
   bytes. *)
let offline_pass jobs =
  let span = Recorder.with_ in
  Array.for_all
    (fun (job, expected) ->
      let wire = Proto.job_to_json job in
      match span "service.decode" (fun () -> Proto.job_of_json wire) with
      | Error _ -> false
      | Ok job -> (
        match span "service.admit" (fun () -> Proto.context_of_job job) with
        | Error _ -> false
        | Ok ctx ->
          let engine =
            span "makespan.engine_create" (fun () ->
                Makespan.Engine.create ~graph:ctx.graph ~platform:ctx.platform ~model:ctx.model)
          in
          body_ok ~expected (span "service.run_job" (fun () -> Proto.run_job ~engine job))))
    jobs

(* The offline pass (spans go to the enabled recorder), then the
   reference phase against a fresh server. Returns the metrics, whether
   every offline response matched, the requests sent and the requests
   failed. *)
let measure ~repro ~seed =
  let plan = plan () in
  let jobs = job_mix () in
  let offline_ok = offline_pass jobs in
  let srv = setup ~repro jobs in
  let reference, server =
    Fun.protect
      ~finally:(fun () -> stop_server srv)
      (fun () ->
        let rng = Prng.Xoshiro.create (Int64.of_int (7 + seed)) in
        let reference = drive ~port:srv.port ~rng ~rate:plan.rate ~n:plan.requests jobs in
        (reference, server_metrics ~port:srv.port))
  in
  let agg = Recorder.aggregate (Recorder.spans ()) in
  let per_call = Recorder.per_call agg in
  ( [
      m "service.decode_us" "us" (per_call "service.decode" 1.);
      m "service.admit_ms" "ms" (per_call "service.admit" 1e-3);
      m "service.run_job_ms" "ms" (per_call "service.run_job" 1e-3);
      m "service.gen_lag_ms" "ms" (median (List.map (fun s -> s.lag_ms) reference));
    ]
    @ server,
    offline_ok,
    List.length reference,
    List.length (List.filter (fun s -> not s.ok) reference) )

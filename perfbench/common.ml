(* Shared helpers: clock, order statistics, result record, files. *)

let now_s = Obs.Clock.now_s
let now_us = Obs.Clock.now_us

let time f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* Harrell-Davis quantile estimate: a Beta-weighted average of all order
   statistics. It moves smoothly when a few samples reorder, where the
   plain order statistic jumps across a gap between clustered values
   (per-case campaign times are clustered), and it is the estimator of
   every latency percentile this benchmark reports. *)
let quantile xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else if not (Float.is_finite a.(n - 1)) then begin
    (* a failed request reads as infinitely late: take the order
       statistic, which is infinite only once failures reach [p] *)
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Int.min (n - 1) (lo + 1) in
    if rank = float_of_int lo then a.(lo) else Float.max a.(lo) a.(hi)
  end
  else begin
    let nf = float_of_int n in
    let alpha = p *. (nf +. 1.) and beta = (1. -. p) *. (nf +. 1.) in
    let cdf x = Numerics.Special.betainc ~alpha ~beta x in
    let acc = ref 0. and prev = ref 0. in
    for i = 1 to n do
      let c = cdf (float_of_int i /. nf) in
      acc := !acc +. ((c -. !prev) *. a.(i - 1));
      prev := c
    done;
    !acc
  end

let median xs = quantile xs 0.5

(* [reps] set-ups, timed one by one: the median time and the last
   set-up's result. Earlier results are discarded and not retained.
   (Forcing a major collection between set-ups instead let the OCaml 5.1
   heap of the following anneal grow to over 100 MB.) *)
let repeated_setup ~reps ?(discard = ignore) f =
  let rec go k times =
    let r, dt = time f in
    if k <= 1 then (median (dt :: times), r)
    else begin
      discard r;
      go (k - 1) (dt :: times)
    end
  in
  go reps []

(* Self-test mode: every workload at a tiny size. *)
let tiny = ref false

(* A tail percentile is reported only when at least ten samples lie
   beyond it; otherwise the run records a failed operation. Tiny
   self-test runs are too short to hold ten. *)
let tail_ok ~n ~p = !tiny || float_of_int n *. (1. -. p) >= 10.

let sum = List.fold_left ( +. ) 0.

let ratio a b = if b = 0. then 0. else a /. b

(* One metric as printed: name, value, unit. *)
type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : (string * string) list;  (* why a per-layer metric is 0 *)
}

(* Outcome of the output checks of one run. Every failed check counts as
   one failed operation. *)
type checks = { mutable failures : string list }

let checks () = { failures = [] }

let check c ok what = if not ok then c.failures <- what :: c.failures

let n_failed c = List.length c.failures

let bits_equal (a : float array) (b : float array) =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let dist_bits_equal d e =
  let xa, pa = Distribution.Dist.to_arrays d and xb, pb = Distribution.Dist.to_arrays e in
  let la, ha = Distribution.Dist.support d and lb, hb = Distribution.Dist.support e in
  bits_equal xa xb && bits_equal pa pb && bits_equal [| la; ha |] [| lb; hb |]

(* Every run writes under this directory of the checkout. *)
let out_dir = ".perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p

(* A fresh, empty directory under [out_dir]. *)
let fresh_dir name =
  let d = Filename.concat out_dir name in
  rm_rf d;
  mkdir_p d;
  d

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Peak resident set of a process, from /proc/<pid>/status (VmHWM). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match read_file path with
  | exception Sys_error _ -> nan
  | s ->
    String.split_on_char '\n' s
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%f kB" (fun kb -> kb /. 1024.)
           | _ -> None)
    |> Option.value ~default:nan

let loadavg () =
  match read_file "/proc/loadavg" with
  | exception Sys_error _ -> "unknown"
  | s -> String.trim s

(* Aggregate CPU jiffies from /proc/stat: (steal, total). *)
let cpu_jiffies () =
  match read_file "/proc/stat" with
  | exception Sys_error _ -> (0., 0.)
  | s -> (
    match String.split_on_char ' ' (List.hd (String.split_on_char '\n' s)) |> List.filter (( <> ) "") with
    | "cpu" :: fields ->
      let v = List.map float_of_string fields in
      ((match List.nth_opt v 7 with Some x -> x | None -> 0.), sum v)
    | _ -> (0., 0.))

let heft =
  match Sched.Registry.parse "HEFT" with
  | Ok e -> e.Sched.Registry.run
  | Error msg -> failwith msg

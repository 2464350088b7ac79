(* The benchmark's own in-memory span recorder, used by traced runs only.

   A span is (name, start, end, parent). Each domain appends to its own
   buffer and keeps its own open-span stack, so pool workers never share
   a lock on the hot path; the buffers are merged when the run ends.
   Spans are placed around the benchmark's calls into each library, so
   a span's self time (its duration minus the time covered by its child
   spans) is the time spent in that library call itself. *)

type span = {
  id : int;
  parent : int;  (* 0 = no parent on this domain *)
  name : string;
  t0 : float;  (* monotonic microseconds *)
  t1 : float;
  dom : int;
}

type dstate = {
  dom : int;
  mutable stack : int list;
  mutable spans : span list;
}

let recording = Atomic.make false
let next_id = Atomic.make 1
let all_states : dstate list ref = ref []
let states_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let s = { dom = (Domain.self () :> int); stack = []; spans = [] } in
      Mutex.protect states_lock (fun () -> all_states := s :: !all_states);
      s)

let enable () = Atomic.set recording true

let with_ name f =
  if not (Atomic.get recording) then f ()
  else begin
    let st = Domain.DLS.get key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match st.stack with p :: _ -> p | [] -> 0 in
    st.stack <- id :: st.stack;
    let t0 = Common.now_us () in
    let finish () =
      let t1 = Common.now_us () in
      st.stack <- List.tl st.stack;
      st.spans <- { id; parent; name; t0; t1; dom = st.dom } :: st.spans
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* Tracing overhead: runs [f false] with recording off and [f true] with
   it on, adding each wall time in seconds to [off] and [on], and leaves
   recording on. The order alternates with [i], so neither twin always
   runs second on caches the other one warmed. *)
let twins ~off ~on i f =
  let run traced =
    Atomic.set recording traced;
    let t0 = Common.now_s () in
    f traced;
    let dt = Common.now_s () -. t0 in
    if traced then on := !on +. dt else off := !off +. dt
  in
  if i mod 2 = 0 then (run false; run true) else (run true; run false);
  enable ()

let spans () = Mutex.protect states_lock (fun () -> List.concat_map (fun s -> s.spans) !all_states)

(* Self time per span: duration minus the children's durations. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    spans

(* Per-name aggregates: count, total self time (µs), and the list of
   inclusive durations (µs) for percentiles. *)
type agg = { count : int; self_us : float; durs_us : float list }

let aggregate spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let a =
        Option.value ~default:{ count = 0; self_us = 0.; durs_us = [] }
          (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name
        { count = a.count + 1; self_us = a.self_us +. self; durs_us = (s.t1 -. s.t0) :: a.durs_us })
    (self_times spans);
  tbl

let find tbl name =
  Option.value ~default:{ count = 0; self_us = 0.; durs_us = [] } (Hashtbl.find_opt tbl name)

(* Mean self time per call of [name], in microseconds times [scale]. *)
let per_call tbl name scale =
  let a = find tbl name in
  Common.ratio (a.self_us *. scale) (float_of_int a.count)

(* Inclusive durations of [name], in milliseconds. *)
let durs_ms tbl name = List.map (fun us -> us /. 1e3) (find tbl name).durs_us

(* Chrome trace_event document of every recorded span. *)
let to_chrome spans =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"name\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d}}"
        s.name s.t0 (s.t1 -. s.t0) s.dom s.id s.parent)
    (List.sort (fun a b -> Float.compare a.t0 b.t0) spans);
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* Wall-bounded native benchmark of the ThreadScan stack.

   Usage: tsperf.exe --workload W --seed N --seconds S --trace 0|1 [--commit C]

   Each invocation runs half-second trials on the native backend
   ({!Ts_par.Runtime.run}), each in a fresh process: one discarded
   warm-up, then [2S] measured ones, and reports medians over the trials.
   A trial body has the shape of [Workload.body]: the main thread
   registers with the scheme, builds the structure, prefills, spawns the
   workers, joins them while staying registered, and flushes.  Unlike
   [Workload.body] the workers run for wall time, and the timed window
   runs from a start barrier (every worker registered and waiting) to the
   last worker's finish, so pool start-up and shutdown fall outside it
   and are reported on their own.  Workers replay (op, key) streams
   generated from the seed before the run, so the program only ever sees
   generated inputs.

   [--trace 0] prints the end-to-end metrics.  [--trace 1] splits the
   [2S] trials into an untraced half and a traced half (see {!Tracer}),
   runs the layer cost ladder ({!Ladder}), and prints the per-layer
   metrics; the two halves give the tracing overhead.  The last line of
   standard output is one JSON object:
   [{"correct", "attempted", "failed", "metrics"}]. *)

module Runtime = Ts_par.Runtime
module Heap = Ts_par.Heap
module Smr = Ts_smr.Smr
module Set_intf = Ts_ds.Set_intf
module Registry = Ts_scheme.Registry
module Splitmix = Ts_util.Splitmix

let now_ns = Tracer.now_ns
let workers = 2
let window_ns = 500_000_000

(* A thread's baseline call-chain frame, as in [Workload.worker]: TS-Scan
   walks all of it. *)
let stack_depth = 64

(* Words one list node occupies in the native heap, header and size-class
   rounding included (an upper bound). *)
let node_alloc_words = 5

type ds_kind = List_ds | Hash_ds of int

type workload = {
  name : string;
  ds : ds_kind;
  scheme : string;
  key_range : int;
  prefill : int;
  update_pct : int;  (** half inserts, half removes *)
  capacity : int;  (** native heap words; fixed for the whole trial *)
}

let workloads =
  [
    {
      name = "list-read";
      ds = List_ds;
      scheme = "threadscan";
      key_range = 512;
      prefill = 256;
      update_pct = 10;
      capacity = 1 lsl 18;
    };
    {
      name = "hash-churn";
      ds = Hash_ds 2048;
      scheme = "threadscan";
      key_range = 8192;
      prefill = 4096;
      update_pct = 50;
      capacity = 1 lsl 19;
    };
    {
      (* leaky never frees: the heap must hold every node inserted in a
         window, so it is sized larger and guarded (see [insert_budget]) *)
      name = "hash-leaky";
      ds = Hash_ds 2048;
      scheme = "leaky";
      key_range = 8192;
      prefill = 4096;
      update_pct = 50;
      capacity = 1 lsl 21;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                        *)
(* ------------------------------------------------------------------ *)

let stream_len = 1 lsl 20

(* Op codes: [key lsl 2 lor kind], kinds numbered as {!Tracer.k_insert},
   {!Tracer.k_remove}, {!Tracer.k_contains}. *)
let gen_stream w rng =
  let half = w.update_pct * 50 in
  Array.init stream_len (fun _ ->
      let key = Splitmix.below rng w.key_range in
      let dice = Splitmix.below rng 10_000 in
      let kind =
        if dice < half then Tracer.k_insert
        else if dice < 2 * half then Tracer.k_remove
        else Tracer.k_contains
      in
      (key lsl 2) lor kind)

type inputs = { prefill_keys : int array; streams : int array array }

let gen_inputs w seed =
  let rng = Splitmix.create seed in
  let keys = Array.init w.key_range Fun.id in
  Splitmix.shuffle (Splitmix.split rng) keys;
  let streams = Array.init workers (fun _ -> gen_stream w (Splitmix.split rng)) in
  { prefill_keys = Array.sub keys 0 w.prefill; streams }

(* ------------------------------------------------------------------ *)
(* One trial                                                            *)
(* ------------------------------------------------------------------ *)

type worker_stats = {
  hist : Hist.t;
  mutable ops : int;
  mutable inserts : int;
  mutable inserts_ok : int;
  mutable removes : int;
  mutable removes_ok : int;
  mutable contains : int;
  mutable finish : int;
  mutable stopped_early : bool;
}

let new_worker_stats () =
  {
    hist = Hist.create ();
    ops = 0;
    inserts = 0;
    inserts_ok = 0;
    removes = 0;
    removes_ok = 0;
    contains = 0;
    finish = 0;
    stopped_early = false;
  }

type core = {
  phases : int;
  signals : int;
  scan_words : int;
  scan_hits : int;
  full_waits : int;
  ack_timeouts : int;
  suspects : int;
  reaps : int;
  overflow_pushes : int;
}

let no_core =
  {
    phases = 0;
    signals = 0;
    scan_words = 0;
    scan_hits = 0;
    full_waits = 0;
    ack_timeouts = 0;
    suspects = 0;
    reaps = 0;
    overflow_pushes = 0;
  }

let core_of ts =
  {
    phases = Threadscan.phases ts;
    signals = Threadscan.signals_sent ts;
    scan_words = Threadscan.scan_words ts;
    scan_hits = Threadscan.scan_hits ts;
    full_waits = Threadscan.full_waits ts;
    ack_timeouts = Threadscan.ack_timeouts ts;
    suspects = Threadscan.suspected_total ts;
    reaps = Threadscan.reaps ts;
    overflow_pushes = Threadscan.overflow_pushes ts;
  }

(* The [Ts_par.Heap] counters a trial reports (the heap itself stays in
   the trial's process). *)
type heap_stats = {
  peak_words : int;
  peak_blocks : int;
  mallocs : int;
  frees : int;
  mag_hits : int;
  mag_misses : int;
  refills : int;
}

let heap_stats h =
  {
    peak_words = Heap.peak_live_words h;
    peak_blocks = Heap.peak_live_blocks h;
    mallocs = Heap.mallocs h;
    frees = Heap.frees h;
    mag_hits = Heap.cache_hits h;
    mag_misses = Heap.cache_misses h;
    refills = Heap.central_refills h;
  }

type trial = {
  errors : string list;  (** failed correctness checks; [] = correct *)
  stats : worker_stats array;
  ops : int;
  window_ns : int;
  setup_ns : int;
  pool_start_ns : int;
  prefill_ns : int;
  flush_ns : int;
  shutdown_ns : int;
  freed : int;
  core : core;
  heap : heap_stats option;
  tracer : Tracer.t option;
}

let make_ds w smr =
  match w.ds with
  | List_ds -> Ts_ds.Michael_list.create ~smr ()
  | Hash_ds buckets -> Ts_ds.Hash_table.create ~smr ~buckets ()

(* Under a scheme that never frees, stop a worker before the fixed-size
   heap fills: each successful insert keeps its node for good. *)
let insert_budget w ~reclaims =
  if reclaims then max_int
  else ((w.capacity / 2) - (w.prefill * node_alloc_words)) / node_alloc_words / workers

let worker (smr : Smr.t) (ds : Set_intf.t) stream (st : worker_stats) ~ready ~go ~start
    ~budget ~tracer () =
  smr.Smr.thread_init ();
  ignore (Ts_rt.Frame.push stack_depth);
  let tid = Ts_rt.self () in
  Atomic.incr ready;
  while not (Atomic.get go) do
    Domain.cpu_relax ()
  done;
  let deadline = Atomic.get start + window_ns in
  let len = Array.length stream in
  let rec loop i =
    let code = stream.(i) in
    let key = code lsr 2 and kind = code land 3 in
    let t0 = now_ns () in
    (match tracer with Some tr -> Tracer.op_begin tr ~tid kind t0 | None -> ());
    if kind = Tracer.k_insert then begin
      st.inserts <- st.inserts + 1;
      if ds.Set_intf.insert key key then st.inserts_ok <- st.inserts_ok + 1
    end
    else if kind = Tracer.k_remove then begin
      st.removes <- st.removes + 1;
      if ds.Set_intf.remove key then st.removes_ok <- st.removes_ok + 1
    end
    else begin
      st.contains <- st.contains + 1;
      ignore (ds.Set_intf.contains key)
    end;
    let t1 = now_ns () in
    (match tracer with Some tr -> Tracer.op_end tr ~tid t1 | None -> ());
    Hist.add st.hist (t1 - t0);
    st.ops <- st.ops + 1;
    if t1 >= deadline then st.finish <- t1
    else if st.inserts_ok >= budget then begin
      st.stopped_early <- true;
      st.finish <- t1
    end
    else loop (if i + 1 = len then 0 else i + 1)
  in
  loop 0;
  smr.Smr.thread_exit ()

type marks = {
  mutable body_start : int;
  mutable start : int;
  mutable prefill : int;
  mutable flush : int;
  mutable body_end : int;
  mutable freed : int;
  mutable core : core;
  mutable errors : string list;
}

let body w inputs stats ~tracer (m : marks) () =
  m.body_start <- now_ns ();
  let d = Registry.get w.scheme in
  let built =
    Registry.build
      { Registry.max_threads = workers + 2; hazard_slots = 3; epoch_batch = 64; budgets = None }
      (Registry.spec w.scheme)
  in
  let smr =
    match tracer with
    | None -> built.Registry.smr
    | Some tr ->
        let phases =
          match built.Registry.ts with
          | Some ts -> fun () -> Threadscan.phases ts
          | None -> fun () -> 0
        in
        Tracer.wrap_smr tr ~phases built.Registry.smr
  in
  let fail fmt = Printf.ksprintf (fun s -> m.errors <- s :: m.errors) fmt in
  smr.Smr.thread_init ();
  let ds = make_ds w smr in
  let t0 = now_ns () in
  Array.iter
    (fun k -> if not (ds.Set_intf.insert k k) then fail "prefill: key %d already present" k)
    inputs.prefill_keys;
  m.prefill <- now_ns () - t0;
  let ready = Atomic.make 0 and go = Atomic.make false and start = Atomic.make 0 in
  let budget = insert_budget w ~reclaims:d.Registry.caps.Registry.reclaims in
  let ws =
    List.init workers (fun i ->
        Ts_rt.spawn
          (worker smr ds inputs.streams.(i) stats.(i) ~ready ~go ~start ~budget ~tracer))
  in
  (* a worker that died before the barrier must not hang the run *)
  while Atomic.get ready < workers && not (List.exists Ts_rt.is_done ws) do
    Domain.cpu_relax ()
  done;
  m.start <- now_ns ();
  Atomic.set start m.start;
  Atomic.set go true;
  (* joined as in [Workload.body]: still registered, so still signalled *)
  List.iter Ts_rt.join ws;
  smr.Smr.thread_exit ();
  let f0 = now_ns () in
  smr.Smr.flush ();
  m.flush <- now_ns () - f0;
  (match ds.Set_intf.check () with () -> () | exception e -> fail "check: %s" (Printexc.to_string e));
  let sum f = Array.fold_left (fun acc st -> acc + f st) 0 stats in
  let expected =
    w.prefill + sum (fun st -> st.inserts_ok) - sum (fun st -> st.removes_ok)
  in
  let size = Set_intf.size ds in
  if size <> expected then fail "size %d, expected %d (prefill + inserts - removes)" size expected;
  let c = smr.Smr.counters in
  m.freed <- c.Smr.freed;
  if d.Registry.caps.Registry.reclaims then begin
    if c.Smr.retired <> c.Smr.freed then
      fail "retired %d <> freed %d after flush" c.Smr.retired c.Smr.freed
  end
  else if c.Smr.freed <> 0 then fail "leaky freed %d nodes" c.Smr.freed;
  (match built.Registry.ts with Some ts -> m.core <- core_of ts | None -> ());
  m.body_end <- now_ns ()

let run_trial w inputs ~seed ~traced =
  let tracer = if traced then Some (Tracer.create ~max_threads:(workers + 2)) else None in
  let stats = Array.init workers (fun _ -> new_worker_stats ()) in
  let m =
    {
      body_start = 0;
      start = 0;
      prefill = 0;
      flush = 0;
      body_end = 0;
      freed = 0;
      core = no_core;
      errors = [];
    }
  in
  let config =
    {
      Runtime.default_config with
      pool = workers;
      seed;
      max_threads = workers + 2;
      mem_capacity = w.capacity;
      strict_mem = true;
      propagate_failures = true;
      watchdog_ns = window_ns + 60_000_000_000;
    }
  in
  Ts_rt.set_decorator (Option.map Tracer.decorate tracer);
  let t_call = now_ns () in
  let res =
    Fun.protect
      ~finally:(fun () -> Ts_rt.set_decorator None)
      (fun () ->
        match Runtime.run ~config (body w inputs stats ~tracer m) with
        | r -> Ok r
        | exception e -> Error e)
  in
  let t_ret = now_ns () in
  let errors, heap =
    match res with
    | Error (Runtime.Thread_failure (tid, e)) ->
        (Printf.sprintf "thread %d failed: %s" tid (Printexc.to_string e) :: m.errors, None)
    | Error e -> (Printf.sprintf "run failed: %s" (Printexc.to_string e) :: m.errors, None)
    | Ok r ->
        let errs = if r.Runtime.wedged then [ "watchdog: run wedged" ] else [] in
        let faults = Heap.total_faults r.Runtime.heap in
        let errs = if faults > 0 then Printf.sprintf "%d heap faults" faults :: errs else errs in
        (errs @ m.errors, Some (heap_stats r.Runtime.heap))
  in
  let finish = Array.fold_left (fun acc st -> max acc st.finish) 0 stats in
  {
    errors = List.rev errors;
    stats;
    ops = Array.fold_left (fun acc (st : worker_stats) -> acc + st.ops) 0 stats;
    window_ns = (if m.start > 0 && finish > m.start then finish - m.start else 0);
    setup_ns = (if m.start > 0 then m.start - t_call else 0);
    pool_start_ns = (if m.body_start > 0 then m.body_start - t_call else 0);
    prefill_ns = m.prefill;
    flush_ns = m.flush;
    shutdown_ns = (if m.body_end > 0 then t_ret - m.body_end else 0);
    freed = m.freed;
    core = m.core;
    heap;
    tracer;
  }

(* Each trial runs in a process of its own, forked before any domain
   exists, so every trial starts from the same fresh OCaml heap: run back
   to back in one process, successive native heaps land in an ever more
   fragmented major heap and throughput drifts down trial after trial.
   The child sends its trial back marshalled; an alarm bounds its life. *)
let in_child f =
  flush_all ();
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      ignore (Unix.alarm 120);
      let oc = Unix.out_channel_of_descr w in
      let v = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
      Marshal.to_channel oc v [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v = try Marshal.from_channel ic with End_of_file -> Error "trial process died" in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      v

let failed_trial msg =
  {
    errors = [ msg ];
    stats = Array.init workers (fun _ -> new_worker_stats ());
    ops = 0;
    window_ns = 0;
    setup_ns = 0;
    pool_start_ns = 0;
    prefill_ns = 0;
    flush_ns = 0;
    shutdown_ns = 0;
    freed = 0;
    core = no_core;
    heap = None;
    tracer = None;
  }

(* ------------------------------------------------------------------ *)
(* Aggregation                                                          *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit : string; note : string }

let metric ?(note = "") name unit value = { name; value; unit; note }

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let median_of f trials = median (List.map f trials)
let fsum f (trials : trial list) = List.fold_left (fun acc t -> acc + f t) 0 trials
let heap_sum f trials = fsum (fun t -> match t.heap with Some h -> f h | None -> 0) trials
let heap_median f trials =
  median_of (fun t -> match t.heap with Some h -> float_of_int (f h) | None -> 0.0) trials

let throughput t =
  if t.window_ns = 0 then 0.0 else float_of_int t.ops *. 1e9 /. float_of_int t.window_ns
let trials_note trials = Printf.sprintf "median of %d trials" (List.length trials)

let latency trials =
  Hist.merge (List.concat_map (fun t -> Array.to_list (Array.map (fun st -> st.hist) t.stats)) trials)

(* The 99.9th percentile is reported, not gated: on list-read it sits on
   the edge of the ack-timeout stalls (tens per run), so which side of
   that edge it lands on swings it by up to 2x between runs. *)
let p999 trials =
  let lat = latency trials in
  metric "op_p999_ns" "ns" (Hist.percentile lat 0.999)
    ~note:(Printf.sprintf "%d samples" (Hist.count lat))

let end_to_end trials =
  let lat = latency trials in
  let samples = Printf.sprintf "%d samples" (Hist.count lat) in
  let tn = trials_note trials in
  [
    metric "throughput_ops_s" "1/s" (median_of throughput trials) ~note:tn;
    metric "op_p50_ns" "ns" (Hist.percentile lat 0.50) ~note:samples;
    metric "op_p99_ns" "ns" (Hist.percentile lat 0.99) ~note:samples;
    metric "peak_heap_words" "words" (heap_median (fun h -> h.peak_words) trials) ~note:tn;
    metric "setup_s" "s" (median_of (fun t -> float_of_int t.setup_ns /. 1e9) trials) ~note:tn;
  ]

let per_layer ~untraced ~traced ~ladder ~failed_share =
  let all = List.concat_map (fun t -> Option.fold ~none:[] ~some:Tracer.threads t.tracer) traced in
  let ws = List.filter (fun (th : Tracer.thread) -> th.tid >= 1 && th.tid <= workers) all in
  let tsum f = List.fold_left (fun acc th -> acc + f th) 0 ws in
  let hmerge f ths = Hist.merge (List.map f ths) in
  let ops = tsum (fun th -> th.Tracer.ops) in
  let per_op f = ratio (tsum f) ops in
  let wsum f = fsum (fun t -> Array.fold_left (fun acc st -> acc + f st) 0 t.stats) traced in
  let csum f = fsum (fun (t : trial) -> f t.core) traced in
  let retire_h = hmerge (fun th -> th.Tracer.retire_h) ws in
  let handler_h = hmerge (fun th -> th.Tracer.handler_h) all in
  let delivery_h = hmerge (fun th -> th.Tracer.delivery_h) all in
  let op_ns = tsum (fun th -> th.Tracer.op_ns) in
  let hits = heap_sum (fun h -> h.mag_hits) traced in
  let misses = heap_sum (fun h -> h.mag_misses) traced in
  let ok_ratio ok calls = ratio (wsum ok) (wsum calls) in
  let samples h = Printf.sprintf "%d samples" (Hist.count h) in
  let med f = median_of (fun t -> float_of_int (f t)) traced in
  let tn = trials_note traced in
  let count name v = metric name "count" (float_of_int v) in
  [
    count "ds.insert_calls" (wsum (fun st -> st.inserts));
    count "ds.remove_calls" (wsum (fun st -> st.removes));
    count "ds.contains_calls" (wsum (fun st -> st.contains));
    metric "ds.insert_ok_ratio" "ratio" (ok_ratio (fun st -> st.inserts_ok) (fun st -> st.inserts));
    metric "ds.remove_ok_ratio" "ratio" (ok_ratio (fun st -> st.removes_ok) (fun st -> st.removes));
    metric "ds.self_ns_per_op" "ns" (ratio (op_ns - tsum (fun th -> th.Tracer.op_child_ns)) ops);
    metric "ds.reads_per_op" "count" (per_op (fun th -> th.Tracer.ds_reads));
    metric "rt.reads_per_op" "count" (per_op (fun th -> th.Tracer.reads));
    metric "rt.writes_per_op" "count" (per_op (fun th -> th.Tracer.writes));
    metric "rt.cas_per_op" "count" (per_op (fun th -> th.Tracer.cas));
    metric "rt.faa_per_op" "count" (per_op (fun th -> th.Tracer.faa));
    metric "rt.fences_per_op" "count" (per_op (fun th -> th.Tracer.fences));
    metric "rt.cas_fail_ratio" "ratio"
      (ratio (tsum (fun th -> th.Tracer.cas_fail)) (tsum (fun th -> th.Tracer.cas)));
    metric "rt.signal_delivery_p50_ns" "ns" (Hist.percentile delivery_h 0.50)
      ~note:(samples delivery_h);
    metric "rt.signal_delivery_p99_ns" "ns" (Hist.percentile delivery_h 0.99)
      ~note:(samples delivery_h);
    count "smr.retire_calls" (Hist.count retire_h);
    metric "smr.retire_p50_ns" "ns" (Hist.percentile retire_h 0.50);
    metric "smr.retire_max_ns" "ns" (float_of_int (Hist.max_value retire_h));
    count "smr.retire_phase_calls" (tsum (fun th -> th.Tracer.retire_phase));
    metric "smr.retire_share_of_op_time" "ratio" (ratio (Hist.total retire_h) op_ns);
    metric "smr.flush_ns" "ns" (med (fun t -> t.flush_ns)) ~note:tn;
    metric "core.phases_per_kop" "1/kop"
      (1000.0 *. ratio (csum (fun c -> c.phases)) (fsum (fun t -> t.ops) traced));
    count "core.signals_sent" (csum (fun c -> c.signals));
    count "core.scan_handler_calls" (Hist.count handler_h);
    metric "core.scan_handler_p50_ns" "ns" (Hist.percentile handler_h 0.50) ~note:(samples handler_h);
    metric "core.scan_handler_total_ns" "ns" (float_of_int (Hist.total handler_h));
    metric "core.scan_hit_ratio" "ratio"
      (ratio (csum (fun c -> c.scan_hits)) (csum (fun c -> c.scan_words)));
    metric "core.freed_per_phase" "count"
      (ratio (fsum (fun t -> t.freed) traced) (csum (fun c -> c.phases)));
    count "core.full_waits" (csum (fun c -> c.full_waits));
    count "core.ack_timeouts" (csum (fun c -> c.ack_timeouts));
    count "core.suspects" (csum (fun c -> c.suspects));
    count "core.reaps" (csum (fun c -> c.reaps));
    count "core.overflow_pushes" (csum (fun c -> c.overflow_pushes));
    count "heap.mallocs" (heap_sum (fun h -> h.mallocs) traced);
    count "heap.frees" (heap_sum (fun h -> h.frees) traced);
    metric "heap.malloc_p50_ns" "ns"
      (Hist.percentile (hmerge (fun th -> th.Tracer.malloc_h) ws) 0.50);
    metric "heap.free_p50_ns" "ns" (Hist.percentile (hmerge (fun th -> th.Tracer.free_h) ws) 0.50);
    metric "heap.mag_hit_ratio" "ratio" (ratio hits (hits + misses));
    count "heap.central_refills" (heap_sum (fun h -> h.refills) traced);
    metric "heap.peak_live_blocks" "count" (heap_median (fun h -> h.peak_blocks) traced) ~note:tn;
    metric "par.pool_start_ns" "ns" (med (fun t -> t.pool_start_ns)) ~note:tn;
    metric "par.prefill_ns" "ns" (med (fun t -> t.prefill_ns)) ~note:tn;
    metric "par.shutdown_ns" "ns" (med (fun t -> t.shutdown_ns)) ~note:tn;
    metric "trace.overhead_ratio" "ratio"
      (let tr = median_of throughput traced in
       if tr = 0.0 then 0.0 else median_of throughput untraced /. tr)
      ~note:"untraced / traced throughput";
    { (p999 untraced) with name = "e2e.op_p999_ns" };
    metric "failed_ops_share" "ratio" failed_share;
  ]
  @ List.map (fun (name, ns) -> metric name "ns" ns ~note:"Bechamel OLS / batch median") ladder

(* ------------------------------------------------------------------ *)
(* Output                                                                *)
(* ------------------------------------------------------------------ *)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let loadavg () =
  match In_channel.with_open_text "/proc/loadavg" In_channel.input_line with
  | Some line -> ( match String.split_on_char ' ' line with l :: _ -> l | [] -> "?")
  | None -> "?"
  | exception Sys_error _ -> "?"

(* (total, steal) jiffies from the first line of /proc/stat: the share of
   CPU time the hypervisor gave to other guests during the run. *)
let cpu_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields ->
          let v = List.map (fun f -> Option.value ~default:0 (int_of_string_opt f)) fields in
          (List.fold_left ( + ) 0 v, match List.nth_opt v 7 with Some x -> x | None -> 0)
      | _ -> (0, 0))
  | None -> (0, 0)
  | exception Sys_error _ -> (0, 0)

let print_trial label i t =
  Printf.printf "%s trial %d: ops=%d window=%.6fs (configured %.3fs) setup=%.4fs shutdown=%.4fs%s%s\n"
    label (i + 1) t.ops
    (float_of_int t.window_ns /. 1e9)
    (float_of_int window_ns /. 1e9)
    (float_of_int t.setup_ns /. 1e9)
    (float_of_int t.shutdown_ns /. 1e9)
    (if Array.exists (fun st -> st.stopped_early) t.stats then " [stopped at heap budget]" else "")
    (match t.errors with [] -> "" | es -> " FAILED: " ^ String.concat "; " es)

let print_degradation_counters trials =
  let c f = fsum (fun (t : trial) -> f t.core) trials in
  Printf.printf
    "degradation ladder: phases=%d signals=%d ack-timeouts=%d suspects=%d reaps=%d \
     overflow-pushes=%d full-waits=%d\n"
    (c (fun c -> c.phases)) (c (fun c -> c.signals)) (c (fun c -> c.ack_timeouts))
    (c (fun c -> c.suspects)) (c (fun c -> c.reaps)) (c (fun c -> c.overflow_pushes))
    (c (fun c -> c.full_waits))

(* Where traced runs leave their spans, relative to the checkout root. *)
let spans_dir = "_perfbench"

let usage () =
  prerr_endline
    "usage: tsperf.exe --workload (list-read|hash-churn|hash-leaky) --seed N --seconds S \
     --trace 0|1 [--commit C]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0 and trace = ref (-1) in
  let commit = ref "unknown" in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest ->
        seconds := Option.value ~default:0 (int_of_string_opt v);
        go rest
    | "--trace" :: v :: rest ->
        trace := Option.value ~default:(-1) (int_of_string_opt v);
        go rest
    | "--commit" :: v :: rest -> commit := v; go rest
    | arg :: _ -> Printf.eprintf "unknown argument %s\n" arg; usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let w =
    match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
    | Some w -> w
    | None -> Printf.eprintf "unknown workload %S\n" !workload; usage ()
  in
  let seed = match !seed with Some s -> s | None -> usage () in
  if !seconds < 1 || !seconds > 60 || (!trace <> 0 && !trace <> 1) then usage ();
  let load_start = loadavg () and ticks_start = cpu_ticks () in
  Printf.printf "perfbench workload=%s seed=%d seconds=%d trace=%d scheme=%s workers=%d\n" w.name seed
    !seconds !trace w.scheme workers;
  let inputs = gen_inputs w seed in
  let trials ~label ~traced n =
    List.init n (fun i ->
        let t =
          match in_child (fun () -> run_trial w inputs ~seed:(seed + i) ~traced) with
          | Ok t -> t
          | Error e -> failed_trial e
        in
        print_trial label i t;
        t)
  in
  (* first-trial effects (cold caches, page faults) stay out of the medians *)
  let warmup = trials ~label:"warm-up" ~traced:false 1 in
  let per_window = 1_000_000_000 / window_ns in
  let untraced = trials ~label:"untraced" ~traced:false (!seconds * per_window / (1 + !trace)) in
  let traced = if !trace = 0 then [] else trials ~label:"traced" ~traced:true (!seconds * per_window / 2) in
  let all = warmup @ untraced @ traced in
  print_degradation_counters all;
  (* a trial that failed a correctness check counts all of its ops as failed *)
  let attempted = max 1 (fsum (fun t -> t.ops) all) in
  let failed = min attempted (fsum (fun t -> if t.errors = [] then 0 else max 1 t.ops) all) in
  let metrics =
    if !trace = 0 then end_to_end untraced
    else begin
      (* last: it starts domains, after which this process may not fork *)
      let ladder = Ladder.run () in
      (match List.find_map (fun t -> t.tracer) traced with
      | None -> ()
      | Some tracer -> (
          let name = Printf.sprintf "spans-%s-seed%d.jsonl" w.name seed in
          let path = Filename.concat spans_dir name in
          try
            if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
            Tracer.dump tracer path;
            Printf.printf "spans of traced trial 1: %d written to %s (%d more counted, not kept)\n"
              (Tracer.spans_recorded tracer) path (Tracer.spans_dropped tracer)
          with Sys_error e -> Printf.printf "spans: not written (%s)\n" e));
      per_layer ~untraced ~traced ~ladder ~failed_share:(ratio failed attempted)
    end
  in
  let total, steal = cpu_ticks () in
  Printf.printf
    "fingerprint: nproc=%d ocaml=%s commit=%s load1_start=%s load1_end=%s steal_share=%.4f \
     seed=%d\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version !commit load_start (loadavg ())
    (ratio (steal - snd ticks_start) (total - fst ticks_start))
    seed;
  Printf.printf "%-32s %18s  %-6s %s\n" "metric" "value" "unit" "";
  let row m = Printf.printf "%-32s %18.3f  %-6s %s\n" m.name m.value m.unit m.note in
  List.iter row metrics;
  (if !trace = 0 then
     let m = p999 untraced in
     row { m with note = m.note ^ "; not gated, see e2e.op_p999_ns under --trace 1" });
  let field m = Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float m.value) m.unit in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", " (List.map field metrics))

(* Per-layer tracing from outside the program.

   Three hooks, all attached through public interfaces:

   - a {!Ts_rt.set_decorator} decorator counts every shared access per
     thread, times [malloc]/[free] as spans, stamps each [signal] with
     its send time and the sender's open span, and wraps the handler a
     thread installs with [set_signal_handler] so each delivery opens a
     [core.scan_handler] span linked to the retire that signalled it;
   - {!wrap_smr} times [Smr.t.retire] as a span and notes whether a
     ThreadScan phase completed inside it;
   - the benchmark's workers open one [ds.*] span per operation
     ({!op_begin}/{!op_end}).

   Spans nest per thread: each records its parent (the innermost open
   span), the root operation it belongs to, and an optional causal link.
   Aggregates (counts, histograms, self time) cover every span; the span
   records themselves are kept in a bounded per-thread buffer and written
   out once, by {!dump}, after the run. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let k_insert = 0
let k_remove = 1
let k_contains = 2
let k_retire = 3
let k_malloc = 4
let k_free = 5
let k_handler = 6

let kind_name = function
  | 0 -> "ds.insert"
  | 1 -> "ds.remove"
  | 2 -> "ds.contains"
  | 3 -> "smr.retire"
  | 4 -> "heap.malloc"
  | 5 -> "heap.free"
  | _ -> "core.scan_handler"

let is_op k = k <= k_contains
let max_depth = 64
let span_cap = 16_384

type thread = {
  tid : int;
  (* open-span stack *)
  st_id : int array;
  st_kind : int array;
  st_start : int array;
  st_child : int array; (* ns covered by the span's direct children *)
  mutable depth : int;
  mutable seq : int;
  (* access counts ([ds_reads]: reads issued by the operation itself,
     not by a retire, allocator or handler span nested in it) *)
  mutable reads : int;
  mutable ds_reads : int;
  mutable writes : int;
  mutable cas : int;
  mutable cas_fail : int;
  mutable faa : int;
  mutable fences : int;
  (* operation spans *)
  mutable ops : int;
  mutable op_ns : int;
  mutable op_child_ns : int;
  (* retire spans *)
  retire_h : Hist.t;
  mutable retire_phase : int;
  malloc_h : Hist.t;
  free_h : Hist.t;
  handler_h : Hist.t;
  delivery_h : Hist.t;
  (* bounded span log *)
  sp_id : int array;
  sp_parent : int array;
  sp_root : int array;
  sp_link : int array;
  sp_kind : int array;
  sp_start : int array;
  sp_end : int array;
  mutable sp_n : int;
  mutable sp_dropped : int;
}

type t = {
  threads : thread array;
  send_ns : int Atomic.t array; (* per target: time of the latest signal *)
  send_span : int Atomic.t array; (* per target: span that sent it *)
}

let new_thread tid =
  let z () = Array.make max_depth 0 and s () = Array.make span_cap 0 in
  {
    tid;
    st_id = z ();
    st_kind = z ();
    st_start = z ();
    st_child = z ();
    depth = 0;
    seq = 0;
    reads = 0;
    ds_reads = 0;
    writes = 0;
    cas = 0;
    cas_fail = 0;
    faa = 0;
    fences = 0;
    ops = 0;
    op_ns = 0;
    op_child_ns = 0;
    retire_h = Hist.create ();
    retire_phase = 0;
    malloc_h = Hist.create ();
    free_h = Hist.create ();
    handler_h = Hist.create ();
    delivery_h = Hist.create ();
    sp_id = s ();
    sp_parent = s ();
    sp_root = s ();
    sp_link = s ();
    sp_kind = s ();
    sp_start = s ();
    sp_end = s ();
    sp_n = 0;
    sp_dropped = 0;
  }

let create ~max_threads =
  {
    threads = Array.init max_threads new_thread;
    send_ns = Array.init max_threads (fun _ -> Atomic.make 0);
    send_span = Array.init max_threads (fun _ -> Atomic.make 0);
  }

let threads t = Array.to_list t.threads

(* ---- span stack ---- *)

let enter th kind start =
  let d = th.depth in
  if d < max_depth then begin
    th.seq <- th.seq + 1;
    th.st_id.(d) <- (th.tid lsl 40) lor th.seq;
    th.st_kind.(d) <- kind;
    th.st_start.(d) <- start;
    th.st_child.(d) <- 0
  end;
  th.depth <- d + 1

(* Close the innermost span; returns its duration. *)
let leave th ~link stop =
  let d = th.depth - 1 in
  th.depth <- d;
  if d >= max_depth then 0
  else begin
    let dur = stop - th.st_start.(d) in
    let parent = if d > 0 then th.st_id.(d - 1) else 0 in
    if d > 0 && d - 1 < max_depth then th.st_child.(d - 1) <- th.st_child.(d - 1) + dur;
    let n = th.sp_n in
    if n < span_cap then begin
      th.sp_id.(n) <- th.st_id.(d);
      th.sp_parent.(n) <- parent;
      th.sp_root.(n) <- (if d > 0 then th.st_id.(0) else th.st_id.(d));
      th.sp_link.(n) <- link;
      th.sp_kind.(n) <- th.st_kind.(d);
      th.sp_start.(n) <- th.st_start.(d);
      th.sp_end.(n) <- stop;
      th.sp_n <- n + 1
    end
    else th.sp_dropped <- th.sp_dropped + 1;
    dur
  end

let top_id th = if th.depth > 0 && th.depth <= max_depth then th.st_id.(th.depth - 1) else 0

let in_op th =
  let d = th.depth in
  d > 0 && d <= max_depth && is_op th.st_kind.(d - 1)

(* ---- operation spans, opened by the benchmark's workers ---- *)

let op_begin t ~tid kind start = enter t.threads.(tid) kind start

let op_end t ~tid stop =
  let th = t.threads.(tid) in
  let d = th.depth - 1 in
  let child = if d >= 0 && d < max_depth then th.st_child.(d) else 0 in
  let dur = leave th ~link:0 stop in
  th.ops <- th.ops + 1;
  th.op_ns <- th.op_ns + dur;
  th.op_child_ns <- th.op_child_ns + child

(* ---- Ts_rt decorator ---- *)

let decorate t (base : Ts_rt.ops) : Ts_rt.ops =
  let me () = t.threads.(base.self ()) in
  let timed hist kind f =
    let th = me () in
    enter th kind (now_ns ());
    let v = f () in
    Hist.add (hist th) (leave th ~link:0 (now_ns ()));
    v
  in
  let wrap_handler h () =
    let start = now_ns () in
    let th = me () in
    let sent = Atomic.get t.send_ns.(th.tid) in
    if sent > 0 then Hist.add th.delivery_h (start - sent);
    enter th k_handler start;
    let link = Atomic.get t.send_span.(th.tid) in
    let finish () = Hist.add th.handler_h (leave th ~link (now_ns ())) in
    match h () with
    | () -> finish ()
    | exception e ->
        finish ();
        raise e
  in
  {
    base with
    read =
      (fun a ->
        let th = me () in
        th.reads <- th.reads + 1;
        if in_op th then th.ds_reads <- th.ds_reads + 1;
        base.read a);
    write =
      (fun a v ->
        let th = me () in
        th.writes <- th.writes + 1;
        base.write a v);
    cas =
      (fun a e d ->
        let th = me () in
        th.cas <- th.cas + 1;
        let ok = base.cas a e d in
        if not ok then th.cas_fail <- th.cas_fail + 1;
        ok);
    faa =
      (fun a d ->
        let th = me () in
        th.faa <- th.faa + 1;
        base.faa a d);
    fence =
      (fun () ->
        let th = me () in
        th.fences <- th.fences + 1;
        base.fence ());
    malloc = (fun n -> timed (fun th -> th.malloc_h) k_malloc (fun () -> base.malloc n));
    free = (fun a -> timed (fun th -> th.free_h) k_free (fun () -> base.free a));
    signal =
      (fun target ->
        let th = me () in
        Atomic.set t.send_span.(target) (top_id th);
        Atomic.set t.send_ns.(target) (now_ns ());
        base.signal target);
    set_signal_handler = (fun h -> base.set_signal_handler (wrap_handler h));
  }

(* ---- scheme wrapper ---- *)

let wrap_smr t ~phases (smr : Ts_smr.Smr.t) =
  let retire p =
    let th = t.threads.(Ts_rt.self ()) in
    let ph0 = phases () in
    enter th k_retire (now_ns ());
    smr.Ts_smr.Smr.retire p;
    Hist.add th.retire_h (leave th ~link:0 (now_ns ()));
    if phases () > ph0 then th.retire_phase <- th.retire_phase + 1
  in
  { smr with Ts_smr.Smr.retire }

(* ---- output ---- *)

let spans_recorded t = Array.fold_left (fun acc th -> acc + th.sp_n) 0 t.threads
let spans_dropped t = Array.fold_left (fun acc th -> acc + th.sp_dropped) 0 t.threads

(* One JSON object per line, in per-thread recording order. *)
let dump t path =
  let oc = open_out path in
  Array.iter
    (fun th ->
      for i = 0 to th.sp_n - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"root\":%d,\"link\":%d,\"name\":%S,\"tid\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
          th.sp_id.(i) th.sp_parent.(i) th.sp_root.(i) th.sp_link.(i)
          (kind_name th.sp_kind.(i))
          th.tid th.sp_start.(i) th.sp_end.(i)
      done)
    t.threads;
  close_out oc

module Smr = Ts_smr.Smr
module Runtime = Ts_rt
module Ptr = Ts_umem.Ptr
module Vec = Ts_util.Vec
module Backoff = Ts_sync.Backoff

type state = {
  max_threads : int;
  counters_base : int; (* one shared word per thread *)
  mirror : int array; (* thread-local copy of the own counter *)
  limbo : Vec.t array;
  pending : Vec.t array; (* batch waiting for the next op boundary *)
  orphans : Vec.t;
  batch : int;
  errant : (int * int) option;
  patience : int option; (* bounded quiescence wait; None = wait forever *)
  mutable waits : int;
  mutable stall_cycles : int;
  mutable gaveups : int; (* cleanups abandoned because patience ran out *)
  mutable unreclaimed_peak : int; (* max limbo+pending ever seen at a boundary *)
}

let counter_addr st tid = st.counters_base + tid

(* Wait until every thread that was mid-operation at snapshot time has
   passed an operation boundary.  With [patience] set, give up after that
   many wall cycles ([Runtime.wall_cycles]: the waiter's own clock would
   count its backoff, not the peer's time) and return [false]: the batch
   is NOT safe to free — epoch has no per-pointer information, so a thread
   that never quiesces (crashed or stalled mid-operation) wedges
   reclamation; all we can bound is the wait, not the limbo growth. *)
let wait_for_quiescence st self =
  let ok = ref true in
  let snap = Array.make st.max_threads 0 in
  for t = 0 to st.max_threads - 1 do
    if t <> self then snap.(t) <- Runtime.read (counter_addr st t)
  done;
  for t = 0 to st.max_threads - 1 do
    if t <> self && !ok && snap.(t) land 1 = 1 then begin
      Runtime.set_wait_note (Some (Fmt.str "epoch quiescence wait on t%d" t));
      let b = Backoff.create () in
      let t0 = Runtime.wall_cycles () in
      while !ok && Runtime.read (counter_addr st t) = snap.(t) do
        st.waits <- st.waits + 1;
        match st.patience with
        | Some p when Runtime.wall_cycles () - t0 > p -> ok := false
        | _ -> Backoff.once b
      done;
      Runtime.set_wait_note None;
      st.stall_cycles <- st.stall_cycles + (Runtime.wall_cycles () - t0)
    end
  done;
  if not !ok then st.gaveups <- st.gaveups + 1;
  !ok

let cleanup st (c : Smr.counters) =
  let self = Runtime.self () in
  Smr.add_cleanups c 1;
  let to_free = st.pending.(self) in
  if not (Vec.is_empty to_free) then
    if wait_for_quiescence st self then begin
      Vec.iter
        (fun p ->
          Runtime.free (Ptr.addr p);
          Smr.add_freed c 1)
        to_free;
      Vec.clear to_free
    end

let create ?(batch = 256) ?errant ?patience ?(skip_fence = false) ~max_threads () =
  let counters_base = Runtime.alloc_region max_threads in
  let st =
    {
      max_threads;
      counters_base;
      mirror = Array.make max_threads 0;
      limbo = Array.init max_threads (fun _ -> Vec.create ());
      pending = Array.init max_threads (fun _ -> Vec.create ());
      orphans = Vec.create ();
      batch;
      errant;
      patience;
      waits = 0;
      stall_cycles = 0;
      gaveups = 0;
      unreclaimed_peak = 0;
    }
  in
  let bump () =
    let tid = Runtime.self () in
    st.mirror.(tid) <- st.mirror.(tid) + 1;
    Runtime.write (counter_addr st tid) st.mirror.(tid)
  in
  let smr = ref None in
  let op_begin () =
    if skip_fence then
      (* Seeded bug: the store announcing the odd epoch is issued without
         the fence that must drain it before the section's first read.
         Rendered TSO-honestly, the announce sits in the store buffer for
         the whole read-side section and only reaches shared memory at
         the next boundary — so a concurrent cleanup reads a stale even
         counter and frees nodes under this thread's feet. *)
      let tid = Runtime.self () in
      st.mirror.(tid) <- st.mirror.(tid) + 1
    else bump ()
  in
  let op_end () =
    let tid = Runtime.self () in
    (* If the batch filled during this operation, the errant thread (Slow
       Epoch) stalls here, mid-operation, with its counter odd: this is the
       application delay the paper injects. *)
    (match st.errant with
    | Some (etid, delay)
      when etid = tid && Vec.length st.limbo.(tid) >= st.batch && Vec.is_empty st.pending.(tid)
      ->
        Runtime.advance delay
    | _ -> ());
    if skip_fence then
      (* the delayed announce finally drains, back to back with the
         boundary store below *)
      Runtime.write (counter_addr st tid) st.mirror.(tid);
    bump ();
    let backlog = Vec.length st.limbo.(tid) + Vec.length st.pending.(tid) in
    if backlog > st.unreclaimed_peak then st.unreclaimed_peak <- backlog;
    (* Operation boundary: our counter is even, so concurrent cleanups never
       wait on us while we wait on them — no mutual stall. *)
    if Vec.length st.limbo.(tid) >= st.batch && Vec.is_empty st.pending.(tid) then begin
      let tmp = st.pending.(tid) in
      st.pending.(tid) <- st.limbo.(tid);
      st.limbo.(tid) <- tmp;
      cleanup st (Option.get !smr : Smr.t).Smr.counters
    end
    else if Vec.length st.limbo.(tid) >= st.batch then
      (* An earlier cleanup gave up (bounded patience): keep retrying at
         every boundary — the batch swap stays blocked, limbo keeps growing
         until quiescence returns.  This is epoch's fundamental wedge. *)
      cleanup st (Option.get !smr : Smr.t).Smr.counters
  in
  let retire (c : Smr.counters) p =
    Smr.add_retired c 1;
    Vec.push st.limbo.(Runtime.self ()) (Ptr.mask p)
  in
  let thread_exit () =
    let tid = Runtime.self () in
    if st.mirror.(tid) land 1 = 1 then bump ();
    (* [orphans] is the one OCaml-heap structure shared across threads:
       concurrent exits must not race their pushes. *)
    Runtime.critical (fun () ->
        Vec.iter (Vec.push st.orphans) st.limbo.(tid);
        Vec.clear st.limbo.(tid);
        Vec.iter (Vec.push st.orphans) st.pending.(tid);
        Vec.clear st.pending.(tid))
  in
  let flush () =
    let c = (Option.get !smr : Smr.t).Smr.counters in
    let self = Runtime.self () in
    if wait_for_quiescence st self then begin
      let drain lst =
        Vec.iter
          (fun p ->
            Runtime.free (Ptr.addr p);
            Smr.add_freed c 1)
          lst;
        Vec.clear lst
      in
      Array.iter drain st.limbo;
      Array.iter drain st.pending;
      drain st.orphans
    end
    (* else: a thread died or stalled mid-operation and never quiesced.
       Without per-pointer information nothing in limbo is provably safe,
       so everything stays unreclaimed — the wedge the ablate-crash
       experiment measures. *)
  in
  let name =
    if skip_fence then "epoch-nofence"
    else match errant with None -> "epoch" | Some _ -> "slow-epoch"
  in
  let t =
    Smr.make ~name ~op_begin ~op_end ~thread_exit ~flush ~retired_access:Smr.In_op
      ~extras:(fun () ->
        [
          ("spin-waits", st.waits);
          ("stall-cycles", st.stall_cycles);
          ("quiescence-gaveups", st.gaveups);
          ("unreclaimed-peak", st.unreclaimed_peak);
        ])
      ~retire ()
  in
  smr := Some t;
  t

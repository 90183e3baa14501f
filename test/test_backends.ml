(* Backend conformance: the same algorithm code (sync primitives, SMR
   schemes, data structures — all written against Ts_rt) must behave
   identically on the deterministic simulator and on real OCaml 5
   domains.  Every case here runs once per backend; the native runs use
   a 4-domain pool so they exercise genuine parallelism even when the
   logical thread count is higher.  A final native-only stress group
   drives ThreadScan's retire/scan/free pipeline under real parallelism
   with the strict shadow-heap oracle armed. *)

module Rt = Ts_rt
module Frame = Ts_rt.Frame
module Smr = Ts_smr.Smr
module Spinlock = Ts_sync.Spinlock
module Ticket_lock = Ts_sync.Ticket_lock
module Barrier = Ts_sync.Barrier
module Backoff = Ts_sync.Backoff

let check = Alcotest.(check int)

type runner = {
  rname : string;
  (* runs [body] as logical thread 0, returns total memory faults *)
  exec : ?strict:bool -> (unit -> unit) -> int;
}

let sim_runner =
  {
    rname = "sim";
    exec =
      (fun ?(strict = true) body ->
        let module R = Ts_sim.Runtime in
        let cfg = { R.default_config with strict_mem = strict; propagate_failures = true } in
        let rt = R.create cfg in
        ignore (R.add_thread rt body);
        ignore (R.start rt);
        Ts_umem.Mem.total_faults (R.mem rt));
  }

let native_runner =
  {
    rname = "native";
    exec =
      (fun ?(strict = true) body ->
        let module R = Ts_par.Runtime in
        let cfg = { R.default_config with strict_mem = strict; pool = 4 } in
        let res = R.run ~config:cfg body in
        Ts_par.Heap.total_faults res.R.heap);
  }

let runners = [ sim_runner; native_runner ]

(* ------------------------------------------------------------------ *)
(* Core runtime ops                                                   *)
(* ------------------------------------------------------------------ *)

let test_memory_roundtrip r () =
  let out = ref 0 and poisoned = ref 0 in
  let faults =
    r.exec ~strict:false (fun () ->
        let a = Rt.malloc 4 in
        Rt.write a 42;
        Rt.write (a + 3) 7;
        out := Rt.read a + Rt.read (a + 3);
        Rt.free a;
        (* UAF: non-strict mode counts the fault and returns poison *)
        poisoned := if Rt.read a = Ts_umem.Mem.poison then 1 else 0)
  in
  check "read back" 49 !out;
  check "freed read returns poison" 1 !poisoned;
  Alcotest.(check bool) "uaf counted" true (faults >= 1)

let test_atomics r () =
  let out = ref [] in
  let faults =
    r.exec (fun () ->
        let a = Rt.alloc_region 1 in
        Rt.write a 10;
        let ok1 = Rt.cas a 10 20 in
        let ok2 = Rt.cas a 10 30 in
        let prev = Rt.faa a 5 in
        out := [ (if ok1 then 1 else 0); (if ok2 then 1 else 0); prev; Rt.read a ])
  in
  Alcotest.(check (list int)) "cas/faa semantics" [ 1; 0; 20; 25 ] !out;
  check "no faults" 0 faults

let test_double_free_detected r () =
  let faults =
    r.exec ~strict:false (fun () ->
        let a = Rt.malloc 2 in
        Rt.free a;
        Rt.free a)
  in
  Alcotest.(check bool) "double free counted" true (faults >= 1)

let test_frames r () =
  let out = ref 0 in
  let (_ : int) =
    (r.exec (fun () ->
         let base0 = snd (Rt.stack_range ()) in
         Frame.with_frame 4 (fun fr ->
             Frame.set fr 0 11;
             Frame.set fr 3 31;
             let grown = snd (Rt.stack_range ()) in
             out := Frame.get fr 0 + Frame.get fr 3 + (grown - base0))))
  in
  check "frame slots + stack growth" (11 + 31 + 4) !out

let test_clock_and_rand r () =
  let ok = ref false in
  let (_ : int) =
    (r.exec (fun () ->
         let t0 = Rt.now () in
         Rt.advance 123;
         let t1 = Rt.now () in
         let v = Rt.rand_below 10 in
         ok := t1 - t0 >= 123 && v >= 0 && v < 10 && Rt.self () = 0))
  in
  Alcotest.(check bool) "clock advances, rand in range" true !ok

let test_spawn_join r () =
  let out = ref 0 in
  let (_ : int) =
    (r.exec (fun () ->
         let cell = Rt.alloc_region 1 in
         let ts = List.init 4 (fun i -> Rt.spawn (fun () -> ignore (Rt.faa cell (i + 1)))) in
         List.iter Rt.join ts;
         List.iter (fun t -> assert (Rt.is_done t)) ts;
         out := Rt.read cell))
  in
  check "all workers ran" 10 !out

let test_signal_delivery r () =
  let out = ref 0 in
  let (_ : int) =
    (r.exec (fun () ->
         let flag = Rt.alloc_region 2 in
         let w =
           Rt.spawn (fun () ->
               Rt.set_signal_handler (fun () -> Rt.write (flag + 1) (Rt.read (flag + 1) + 1));
               Rt.write flag 1;
               (* spin at op boundaries until the signal landed *)
               let b = Backoff.create () in
               while Rt.read (flag + 1) = 0 do
                 Backoff.once b
               done)
         in
         let b = Backoff.create () in
         while Rt.read flag = 0 do
           Backoff.once b
         done;
         Rt.signal w;
         Rt.join w;
         out := Rt.read (flag + 1)))
  in
  Alcotest.(check bool) "handler ran at least once" true (!out >= 1)

(* ------------------------------------------------------------------ *)
(* Sync primitives                                                    *)
(* ------------------------------------------------------------------ *)

let hammer ~threads ~iters ~lock ~unlock counter =
  let ts =
    List.init threads (fun _ ->
        Rt.spawn (fun () ->
            for _ = 1 to iters do
              lock ();
              let v = Rt.read counter in
              Rt.advance 3;
              Rt.write counter (v + 1);
              unlock ()
            done))
  in
  List.iter Rt.join ts

let test_spinlock r () =
  let out = ref 0 in
  let (_ : int) =
    (r.exec (fun () ->
         let counter = Rt.alloc_region 1 in
         let l = Spinlock.create () in
         hammer ~threads:6 ~iters:40
           ~lock:(fun () -> Spinlock.acquire l)
           ~unlock:(fun () -> Spinlock.release l)
           counter;
         out := Rt.read counter))
  in
  check "no lost updates under spinlock" 240 !out

let test_ticket_lock r () =
  let out = ref 0 in
  let (_ : int) =
    (r.exec (fun () ->
         let counter = Rt.alloc_region 1 in
         let l = Ticket_lock.create () in
         hammer ~threads:6 ~iters:40
           ~lock:(fun () -> Ticket_lock.acquire l)
           ~unlock:(fun () -> Ticket_lock.release l)
           counter;
         out := Rt.read counter))
  in
  check "no lost updates under ticket lock" 240 !out

let test_barrier r () =
  let ok = ref false in
  let (_ : int) =
    (r.exec (fun () ->
         let n = 4 in
         let bar = Barrier.create n in
         let before = Rt.alloc_region 1 and after = Rt.alloc_region 1 in
         let ts =
           List.init n (fun _ ->
               Rt.spawn (fun () ->
                   ignore (Rt.faa before 1);
                   Barrier.wait bar;
                   (* everyone reached the barrier before anyone passed *)
                   if Rt.read before = n then ignore (Rt.faa after 1)))
         in
         List.iter Rt.join ts;
         ok := Rt.read after = n))
  in
  Alcotest.(check bool) "barrier releases only when full" true !ok

(* ------------------------------------------------------------------ *)
(* SMR schemes and data structures                                    *)
(* ------------------------------------------------------------------ *)

module Registry = Ts_scheme.Registry

(* Conformance is driven off the scheme registry: the registry is the
   roster, so a newly registered scheme is covered on both backends by
   construction — no list here to keep in sync. *)
let make_scheme ?(max_threads = 8) id =
  let env = { Registry.max_threads; hazard_slots = 3; epoch_batch = 32; budgets = None } in
  (Registry.build env (Registry.spec ~buffer:16 id)).Registry.smr

let run_scheme_workload r scheme ~threads ~ops =
  let retired = ref 0 and freed = ref 0 in
  let faults =
    r.exec (fun () ->
        let smr = make_scheme scheme in
        smr.Smr.thread_init ();
        let ds = Ts_ds.Michael_list.create ~smr () in
        for k = 0 to 15 do
          ignore (ds.Ts_ds.Set_intf.insert k k)
        done;
        let ws =
          List.init threads (fun _ ->
              Rt.spawn (fun () ->
                  smr.Smr.thread_init ();
                  ignore (Frame.push 8);
                  for _ = 1 to ops do
                    let key = Rt.rand_below 32 in
                    match Rt.rand_below 3 with
                    | 0 -> ignore (ds.Ts_ds.Set_intf.insert key key)
                    | 1 -> ignore (ds.Ts_ds.Set_intf.remove key)
                    | _ -> ignore (ds.Ts_ds.Set_intf.contains key)
                  done;
                  smr.Smr.thread_exit ()))
        in
        List.iter Rt.join ws;
        smr.Smr.thread_exit ();
        smr.Smr.flush ();
        retired := smr.Smr.counters.Smr.retired;
        freed := smr.Smr.counters.Smr.freed)
  in
  (faults, !retired, !freed)

let test_scheme r (d : Registry.descriptor) () =
  let faults, retired, freed = run_scheme_workload r d.Registry.id ~threads:4 ~ops:250 in
  check "no memory faults" 0 faults;
  Alcotest.(check bool) "some nodes were retired" true (retired > 0);
  if d.Registry.caps.Registry.reclaims then
    check "flush reclaims every retired node" 0 (retired - freed)
  else check "non-reclaiming scheme frees nothing" 0 freed

let make_ds smr = function
  | "list" -> Ts_ds.Michael_list.create ~smr ()
  | "hash" -> Ts_ds.Hash_table.create ~smr ~buckets:32 ()
  | "skiplist" -> Ts_ds.Skiplist.create ~smr ~max_height:6 ()
  | "lazy-list" -> Ts_ds.Lazy_list.create ~smr ()
  | "split-hash" -> Ts_ds.Split_hash.set (Ts_ds.Split_hash.create ~smr ~max_buckets:32 ())
  | s -> invalid_arg s

let test_ds r kind () =
  let size = ref (-1) and faults = ref (-1) in
  faults :=
    r.exec (fun () ->
        let smr = make_scheme "threadscan" in
        smr.Smr.thread_init ();
        let ds = make_ds smr kind in
        let ws =
          List.init 4 (fun i ->
              Rt.spawn (fun () ->
                  smr.Smr.thread_init ();
                  ignore (Frame.push 8);
                  for _ = 1 to 200 do
                    let key = Rt.rand_below 48 in
                    match Rt.rand_below 3 with
                    | 0 -> ignore (ds.Ts_ds.Set_intf.insert key key)
                    | 1 -> ignore (ds.Ts_ds.Set_intf.remove key)
                    | _ -> ignore (ds.Ts_ds.Set_intf.contains key)
                  done;
                  (* leave a deterministic residue: thread i owns keys 100+i *)
                  ignore (ds.Ts_ds.Set_intf.insert (100 + i) i);
                  smr.Smr.thread_exit ()))
        in
        List.iter Rt.join ws;
        ds.Ts_ds.Set_intf.check ();
        for i = 0 to 3 do
          assert (ds.Ts_ds.Set_intf.contains (100 + i))
        done;
        size := List.length (ds.Ts_ds.Set_intf.to_list ());
        smr.Smr.thread_exit ();
        smr.Smr.flush ());
  check "no memory faults" 0 !faults;
  Alcotest.(check bool) "structure non-empty and consistent" true (!size >= 4)

(* ------------------------------------------------------------------ *)
(* Native-only: ThreadScan stress under real parallelism              *)
(* ------------------------------------------------------------------ *)

let test_native_stress () =
  let module R = Ts_par.Runtime in
  let threads = 8 in
  let cfg =
    { R.default_config with pool = 4; strict_mem = true; max_threads = threads + 2 }
  in
  let retired = ref 0 and freed = ref 0 and phases = ref 0 in
  let res =
    R.run ~config:cfg (fun () ->
        let config =
          { Threadscan.Config.default with max_threads = threads + 2; buffer_size = 24 }
        in
        let ts = Threadscan.create ~config () in
        let smr = Threadscan.smr ts in
        smr.Smr.thread_init ();
        let ds = Ts_ds.Michael_list.create ~smr () in
        for k = 0 to 31 do
          ignore (ds.Ts_ds.Set_intf.insert k k)
        done;
        let ws =
          List.init threads (fun _ ->
              Rt.spawn (fun () ->
                  smr.Smr.thread_init ();
                  ignore (Frame.push 16);
                  for _ = 1 to 1_500 do
                    let key = Rt.rand_below 64 in
                    match Rt.rand_below 4 with
                    | 0 -> ignore (ds.Ts_ds.Set_intf.insert key key)
                    | 1 -> ignore (ds.Ts_ds.Set_intf.remove key)
                    | _ -> ignore (ds.Ts_ds.Set_intf.contains key)
                  done;
                  smr.Smr.thread_exit ()))
        in
        List.iter Rt.join ws;
        smr.Smr.thread_exit ();
        smr.Smr.flush ();
        retired := smr.Smr.counters.Smr.retired;
        freed := smr.Smr.counters.Smr.freed;
        phases := Threadscan.phases ts)
  in
  check "no UAF / double-free / wild access" 0 (Ts_par.Heap.total_faults res.R.heap);
  Alcotest.(check bool) "retirements happened" true (!retired > 100);
  check "no leaked nodes after flush" 0 (!retired - !freed);
  Alcotest.(check bool) "scan phases ran" true (!phases >= 1);
  Alcotest.(check bool) "signals were delivered" true (res.R.run_stats.R.signals_delivered > 0)

let test_native_parallel_speedup_shape () =
  (* Not a perf assertion (CI machines vary; this box may have 1 core):
     just proves a multi-domain pool completes the same workload and
     reports sane wall-clock numbers. *)
  let module R = Ts_par.Runtime in
  let run pool =
    let cfg = { R.default_config with pool; max_threads = 8 } in
    let res =
      R.run ~config:cfg (fun () ->
          let cell = Rt.alloc_region 1 in
          let ws =
            List.init 4 (fun _ ->
                Rt.spawn (fun () ->
                    for _ = 1 to 3_000 do
                      ignore (Rt.faa cell 1)
                    done))
          in
          List.iter Rt.join ws)
    in
    res
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check bool) "pool=1 did the work" true (r1.R.run_stats.R.faas = 12_000);
  Alcotest.(check bool) "pool=4 did the work" true (r4.R.run_stats.R.faas = 12_000);
  Alcotest.(check bool) "wall clocks measured" true (r1.R.wall_ns > 0 && r4.R.wall_ns > 0)

(* ------------------------------------------------------------------ *)
(* Native-only: the degradation ladder under real-domain faults        *)
(* ------------------------------------------------------------------ *)

(* Mirrors the tstrace Figure-2 setup: workers publish one node each and
   hold it in a frame until released, so the reclaimer must keep those
   nodes alive across the fault. *)
let ladder_fixture ~nthreads ~config ~fault ~after body_extra =
  let module R = Ts_par.Runtime in
  let cfg =
    { R.default_config with pool = 4; strict_mem = true; max_threads = nthreads + 2 }
  in
  let out = ref None in
  let res =
    R.run ~config:cfg (fun () ->
        let ts = Threadscan.create ~config () in
        let smr = Threadscan.smr ts in
        smr.Smr.thread_init ();
        let cells = Rt.alloc_region nthreads in
        let stop = Rt.alloc_region 1 in
        let ws =
          List.init nthreads (fun i ->
              Rt.spawn (fun () ->
                  smr.Smr.thread_init ();
                  Frame.with_frame 1 (fun fr ->
                      let p = Ts_umem.Ptr.of_addr (Rt.malloc 3) in
                      Frame.set fr 0 p;
                      Rt.write (cells + i) p;
                      while Rt.read stop = 0 do
                        Rt.advance 20
                      done;
                      Frame.set fr 0 0);
                  smr.Smr.thread_exit ()))
        in
        (* wait until every worker has registered and published its node:
           a fault landing before the victim's thread_init would freeze an
           unregistered thread the ladder never signals or suspects *)
        for i = 0 to nthreads - 1 do
          while Rt.read (cells + i) = 0 do
            Rt.sleep 1_000
          done
        done;
        fault ();
        (* retire the held nodes, then filler: phases must run against
           the faulted worker *)
        for i = 0 to nthreads - 1 do
          let p = Rt.read (cells + i) in
          if not (Ts_umem.Ptr.is_null p) then begin
            Rt.write (cells + i) 0;
            smr.Smr.retire p
          end
        done;
        for _ = 1 to 4 * (Threadscan.config ts).Threadscan.Config.buffer_size do
          smr.Smr.retire (Ts_umem.Ptr.of_addr (Rt.malloc 3))
        done;
        after ts smr;
        Rt.write stop 1;
        List.iter Rt.join ws;
        smr.Smr.thread_exit ();
        smr.Smr.flush ();
        out :=
          Some
            ( smr.Smr.counters.Smr.retired - smr.Smr.counters.Smr.freed,
              body_extra ts ))
  in
  let module R = Ts_par.Runtime in
  Alcotest.(check bool) "run not wedged" false res.R.wedged;
  check "no UAF / double-free / wild access" 0 (Ts_par.Heap.total_faults res.R.heap);
  match !out with None -> Alcotest.fail "body never finished" | Some v -> v

let ladder_config =
  (* budgets small enough that the ladder fires inside a tiny run: the
     ack wait gives up fast, suspects stay suspects (not reaped) while
     the victim is merely frozen *)
  {
    Threadscan.Config.default with
    max_threads = 5;
    buffer_size = 8;
    ack_budget = 2_000;
    suspect_phases = 1_000;
  }

let test_native_ladder_proxy_scan () =
  (* Stall worker 1 forever while it holds a published node: phases must
     go blind, suspect it, proxy-scan its frozen stack (keeping the node
     alive), then see it recover after the explicit release. *)
  let outstanding, (suspects, proxy_scans, recoveries) =
    ladder_fixture ~nthreads:3 ~config:ladder_config
      ~fault:(fun () ->
        Rt.stall 1;
        (* the stall request is polled; wait until the victim is parked *)
        while not (Rt.is_stalled 1) do
          Rt.sleep 1_000
        done)
      ~after:(fun ts smr ->
        Rt.unstall 1;
        (* wake propagates in real time; then force post-wake phases so
           the suspect's returning ack is observed *)
        while Rt.is_stalled 1 do
          Rt.sleep 1_000
        done;
        for _ = 1 to 2 * (Threadscan.config ts).Threadscan.Config.buffer_size do
          smr.Smr.retire (Ts_umem.Ptr.of_addr (Rt.malloc 3))
        done)
      (fun ts ->
        (Threadscan.suspected_total ts, Threadscan.proxy_scans ts, Threadscan.recoveries ts))
  in
  check "all retired nodes reclaimed after flush" 0 outstanding;
  Alcotest.(check bool) "victim went suspect" true (suspects >= 1);
  Alcotest.(check bool) "frozen victim was proxy-scanned" true (proxy_scans >= 1);
  Alcotest.(check bool) "release was observed as a recovery" true (recoveries >= 1)

let test_native_ladder_reap_readmit () =
  (* Crash worker 1 mid-hold: the ladder must reap the corpse (dropping
     its pin) and a later thread re-admits cleanly into the same scheme. *)
  let readmitted = ref false in
  let outstanding, reaps =
    ladder_fixture ~nthreads:3
      ~config:{ ladder_config with suspect_phases = 2 }
      ~fault:(fun () ->
        Rt.crash 1;
        (* the kill is polled; wait until the victim is an observable corpse *)
        while not (Rt.is_done 1) do
          Rt.sleep 1_000
        done)
      ~after:(fun _ts smr ->
        (* re-admit: a fresh thread joins the scheme after the reap and
           works normally *)
        let w =
          Rt.spawn (fun () ->
              smr.Smr.thread_init ();
              ignore (Frame.push 4);
              for _ = 1 to 8 do
                smr.Smr.retire (Ts_umem.Ptr.of_addr (Rt.malloc 2))
              done;
              smr.Smr.thread_exit ())
        in
        Rt.join w;
        readmitted := true)
      (fun ts -> Threadscan.reaps ts)
  in
  check "all retired nodes reclaimed after flush" 0 outstanding;
  Alcotest.(check bool) "corpse was reaped" true (reaps >= 1);
  Alcotest.(check bool) "fresh thread re-admitted after the reap" true !readmitted

let test_native_ladder_heartbeat_takeover () =
  (* The reclaimer itself stalls forever mid-phase (injected): another
     retiring worker must watch its heartbeat go stale, wrest the phase
     lock, and finish reclamation; the eventual release resumes the old
     reclaimer into the generation fence. *)
  let module R = Ts_par.Runtime in
  let cfg = { R.default_config with pool = 4; strict_mem = true; max_threads = 6 } in
  let takeovers = ref 0 and outstanding = ref (-1) in
  let res =
    R.run ~config:cfg (fun () ->
        let config =
          {
            ladder_config with
            Threadscan.Config.takeover_steps = 50;
            ack_budget = 1_000;
          }
        in
        let ts = Threadscan.create ~config () in
        let smr = Threadscan.smr ts in
        smr.Smr.thread_init ();
        Threadscan.set_inject ts Threadscan.Stall_mid_phase;
        let bsz = config.Threadscan.Config.buffer_size in
        (* tid 1 fills its buffer then flushes: it becomes the reclaimer
           with nothing in flight (a node still in retire's hand when the
           takeover kills its owner is leaked by design) and stalls
           mid-phase; tid 2 keeps retiring and must take the orphaned
           phase lock over.  The takeover declares t1 dead and kills it,
           so its thread_exit never runs: the reap deregisters it. *)
        let w1 =
          Rt.spawn (fun () ->
              smr.Smr.thread_init ();
              ignore (Frame.push 4);
              for _ = 1 to bsz do
                smr.Smr.retire (Ts_umem.Ptr.of_addr (Rt.malloc 2))
              done;
              smr.Smr.flush ();
              smr.Smr.thread_exit ())
        in
        while not (Rt.is_stalled 1) do
          Rt.sleep 1_000
        done;
        let w2 =
          Rt.spawn (fun () ->
              smr.Smr.thread_init ();
              ignore (Frame.push 4);
              for _ = 1 to 4 * bsz do
                smr.Smr.retire (Ts_umem.Ptr.of_addr (Rt.malloc 2))
              done;
              smr.Smr.thread_exit ())
        in
        Rt.join w2;
        (* release the ex-reclaimer: the takeover already declared it
           dead, so it wakes straight into the kill *)
        Rt.unstall 1;
        Rt.join w1;
        smr.Smr.thread_exit ();
        smr.Smr.flush ();
        takeovers := Threadscan.takeovers ts;
        outstanding := smr.Smr.counters.Smr.retired - smr.Smr.counters.Smr.freed)
  in
  Alcotest.(check bool) "run not wedged" false res.R.wedged;
  check "no UAF / double-free / wild access" 0 (Ts_par.Heap.total_faults res.R.heap);
  Alcotest.(check bool) "phase lock was taken over" true (!takeovers >= 1);
  check "all retired nodes reclaimed after flush" 0 !outstanding

(* No fault plan, so the ladder must stay silent: every signalled thread
   acks within the budget, so no phase times out, no thread goes suspect
   and none is reaped.  Hash churn as the wall-bounded benchmark runs it:
   2 workers on 2 domains for 0.3 s of wall time, while main stays
   registered and joins them, as [Workload.body] does.  Two defects each
   time phases out here: a joiner that only polls for signals now and
   then, and an ack budget counted in the reclaimer's own backoff
   cycles. *)
let test_native_fault_free_ladder_silent () =
  let module R = Ts_par.Runtime in
  let workers = 2 and keys = 4096 in
  let cfg =
    {
      R.default_config with
      pool = workers;
      max_threads = workers + 2;
      watchdog_ns = 30_000_000_000;
    }
  in
  let ts = ref None and ops = ref 0 in
  let res =
    R.run ~config:cfg (fun () ->
        let config = { Threadscan.Config.default with max_threads = workers + 2 } in
        let t = Threadscan.create ~config () in
        ts := Some t;
        let smr = Threadscan.smr t in
        smr.Smr.thread_init ();
        let ds = Ts_ds.Hash_table.create ~smr ~buckets:(keys / 2) () in
        for k = 0 to (keys / 2) - 1 do
          ignore (ds.Ts_ds.Set_intf.insert (2 * k) k)
        done;
        let counts = Array.make workers 0 in
        let deadline = Unix.gettimeofday () +. 0.3 in
        let ws =
          List.init workers (fun i ->
              Rt.spawn (fun () ->
                  smr.Smr.thread_init ();
                  ignore (Frame.push 64);
                  while Unix.gettimeofday () < deadline do
                    let key = Rt.rand_below keys in
                    (match Rt.rand_below 4 with
                    | 0 -> ignore (ds.Ts_ds.Set_intf.insert key key)
                    | 1 -> ignore (ds.Ts_ds.Set_intf.remove key)
                    | _ -> ignore (ds.Ts_ds.Set_intf.contains key));
                    counts.(i) <- counts.(i) + 1
                  done;
                  smr.Smr.thread_exit ()))
        in
        List.iter Rt.join ws;
        smr.Smr.thread_exit ();
        smr.Smr.flush ();
        ops := Array.fold_left ( + ) 0 counts)
  in
  Alcotest.(check bool) "run not wedged" false res.R.wedged;
  check "no UAF / double-free / wild access" 0 (Ts_par.Heap.total_faults res.R.heap);
  let t = Option.get !ts in
  Alcotest.(check bool)
    (Fmt.str "phases ran (%d phases, %d ops)" (Threadscan.phases t) !ops)
    true
    (Threadscan.phases t >= 5);
  check "ack timeouts" 0 (Threadscan.ack_timeouts t);
  check "suspects" 0 (Threadscan.suspected_total t);
  check "reaps" 0 (Threadscan.reaps t)

(* ------------------------------------------------------------------ *)
(* Native-only: a registered joiner parks but stays wakeable           *)
(* ------------------------------------------------------------------ *)

(* Runs [main] as tid 0 under a watchdog, so a joiner that is never woken
   shows up as a wedged run instead of a hung test. *)
let run_joiner ?(watchdog_ms = 5_000) main =
  let module R = Ts_par.Runtime in
  let cfg =
    {
      R.default_config with
      pool = 2;
      max_threads = 4;
      propagate_failures = true;
      watchdog_ns = watchdog_ms * 1_000_000;
    }
  in
  let t0 = Unix.gettimeofday () in
  let res = R.run ~config:cfg main in
  (res, Unix.gettimeofday () -. t0)

(* Main parks in [join] while a worker signals it again and again, each
   time waiting for the handler's ack before the next send: every handler
   must run while main is still parked (the worker exits only after the
   last ack), so a lost wakeup leaves the worker waiting until the
   watchdog fires. *)
let test_parked_joiner_runs_handler () =
  let module R = Ts_par.Runtime in
  let rounds = 200 in
  let acked = ref 0 in
  let res, _ =
    run_joiner (fun () ->
        let count = Rt.alloc_region 1 in
        Rt.set_signal_handler (fun () -> ignore (Rt.faa count 1));
        let w =
          Rt.spawn (fun () ->
              for i = 1 to rounds do
                Rt.signal 0;
                while Rt.read count < i do
                  Rt.yield ()
                done
              done)
        in
        Rt.join w;
        acked := Rt.read count)
  in
  Alcotest.(check bool) "run not wedged" false res.R.wedged;
  check "every signal handled while parked" rounds !acked

let test_parked_joiner_released_by_exit () =
  let module R = Ts_par.Runtime in
  let joined = ref false in
  let res, _ =
    run_joiner (fun () ->
        let w = Rt.spawn (fun () -> Rt.sleep 100_000) in
        Rt.join w;
        joined := Rt.is_done w)
  in
  Alcotest.(check bool) "run not wedged" false res.R.wedged;
  Alcotest.(check bool) "join returned after the target's exit" true !joined

(* The worker crashes main while main is parked joining it, then stays
   alive until main is done: only the crash can have released the join. *)
let test_parked_joiner_released_by_crash () =
  let module R = Ts_par.Runtime in
  let res, _ =
    run_joiner (fun () ->
        let w =
          Rt.spawn (fun () ->
              Rt.sleep 100_000;
              Rt.crash 0;
              while not (Rt.is_done 0) do
                Rt.sleep 1_000
              done)
        in
        Rt.join w)
  in
  Alcotest.(check bool) "run not wedged" false res.R.wedged;
  Alcotest.(check (list int)) "main was killed in its join" [ 0 ] res.R.crashed

(* The target spins outside the runtime, so it never sees the watchdog's
   kill; main, parked joining it, must be woken by the kill itself.  Main
   releases the target on the way out so the run can drain. *)
let test_parked_joiner_released_by_watchdog () =
  let module R = Ts_par.Runtime in
  let release = Atomic.make false in
  let watchdog_ms = 200 in
  let res, wall =
    run_joiner ~watchdog_ms (fun () ->
        let w =
          Rt.spawn (fun () ->
              while not (Atomic.get release) do
                Domain.cpu_relax ()
              done)
        in
        Fun.protect ~finally:(fun () -> Atomic.set release true) (fun () -> Rt.join w))
  in
  Alcotest.(check bool) "watchdog fired" true res.R.wedged;
  Alcotest.(check (list int)) "main was killed in its join" [ 0 ] res.R.crashed;
  Alcotest.(check bool)
    (Fmt.str "released within 2 s of the watchdog (%.3f s)" wall)
    true
    (wall < (float_of_int watchdog_ms /. 1e3) +. 2.0)

(* A sender that keeps re-signalling until its target makes progress
   (DEBRA+'s neutralize loop does) must not trap the target in signal
   delivery: one handler run covers everything pending at a poll, then
   the target completes its op.  One run per signal never ends while the
   sender outpaces the handler, and the run wedges. *)
let test_signal_storm_cannot_starve_target () =
  let module R = Ts_par.Runtime in
  let handled = Atomic.make 0 in
  let res, _ =
    run_joiner ~watchdog_ms:3_000 (fun () ->
        let ready = Rt.alloc_region 1 and ack = Rt.alloc_region 1 in
        let target =
          Rt.spawn (fun () ->
              Rt.set_signal_handler (fun () -> Atomic.incr handled);
              Rt.write ready 1;
              while Atomic.get handled = 0 do
                Rt.yield ()
              done;
              Rt.write ack 1)
        in
        let sender =
          Rt.spawn (fun () ->
              while Rt.read ready = 0 do
                Rt.yield ()
              done;
              while Rt.read ack = 0 do
                Rt.signal target
              done)
        in
        Rt.join sender;
        Rt.join target)
  in
  Alcotest.(check bool) "run not wedged" false res.R.wedged;
  Alcotest.(check bool) "target handled signals" true (Atomic.get handled > 0)

(* ------------------------------------------------------------------ *)
(* Native heap growth                                                 *)
(* ------------------------------------------------------------------ *)

module Heap = Ts_par.Heap
module Mem = Ts_umem.Mem

(* Two domains allocate across several doublings of the cell array while
   a third keeps reading, writing, CASing and FAAing blocks allocated
   before and during the growth (the latter published by the allocators,
   so the accessor often holds a stale snapshot of the array).  Nothing
   may fault and no write may be lost. *)
let test_heap_growth_concurrent () =
  let heap = Heap.create ~capacity:(1 lsl 20) ~max_threads:4 () in
  let cells0 = Heap.materialised heap in
  let early = Array.init 64 (fun _ -> Heap.malloc heap ~tid:0 4) in
  Array.iter (fun a -> Heap.write heap a 0) early;
  let latest = Array.init 2 (fun _ -> Atomic.make 0) in
  let stop = Atomic.make false in
  let allocator i () =
    let tid = i + 1 in
    let mine = ref [] in
    while Heap.size heap < 1 lsl 18 do
      let a = Heap.malloc heap ~tid 16 in
      Heap.write heap a a;
      mine := a :: !mine;
      Atomic.set latest.(i) a
    done;
    !mine
  in
  let accessor () =
    let cas_ok = Array.make (Array.length early) 0 and faas = Hashtbl.create 1024 in
    let bad = ref 0 in
    while not (Atomic.get stop) do
      Array.iteri
        (fun j a ->
          let v = Heap.read heap a in
          if Heap.cas heap a v (v + 1) then cas_ok.(j) <- cas_ok.(j) + 1;
          Heap.write heap (a + 1) v)
        early;
      Array.iter
        (fun l ->
          let a = Atomic.get l in
          if a > 0 then begin
            if Heap.read heap a <> a then incr bad;
            ignore (Heap.faa heap (a + 1) 1);
            Hashtbl.replace faas a (1 + Option.value ~default:0 (Hashtbl.find_opt faas a))
          end)
        latest;
      Domain.cpu_relax ()
    done;
    (cas_ok, faas, !bad)
  in
  let acc = Domain.spawn accessor in
  let allocs = List.init 2 (fun i -> Domain.spawn (allocator i)) in
  let blocks = List.concat_map Domain.join allocs in
  Atomic.set stop true;
  let cas_ok, faas, bad = Domain.join acc in
  check "no faults" 0 (Heap.total_faults heap);
  check "published blocks read back" 0 bad;
  Alcotest.(check bool)
    "grew across several doublings" true
    (Heap.materialised heap >= 8 * cells0);
  Array.iteri (fun j a -> check "no lost CAS" cas_ok.(j) (Heap.read heap a)) early;
  List.iter
    (fun a ->
      check "allocator write kept" a (Heap.read heap a);
      check "no lost FAA"
        (Option.value ~default:0 (Hashtbl.find_opt faas a))
        (Heap.read heap (a + 1)))
    blocks

(* An address the array has not reached yet was never reserved: it
   faults as wild, like any unallocated word, and growth is unaffected. *)
let test_heap_wild_past_materialised () =
  let capacity = 1 lsl 20 in
  let heap = Heap.create ~strict:false ~capacity ~max_threads:1 () in
  let cells = Heap.materialised heap in
  Alcotest.(check bool) "not materialised up front" true (cells < capacity);
  List.iter
    (fun addr ->
      check "read is poison" Mem.poison (Heap.read heap addr);
      Heap.write heap addr 1;
      Alcotest.(check bool) "cas fails" false (Heap.cas heap addr 0 1);
      ignore (Heap.faa heap addr 1);
      check "raw read sees an untouched word" 0 (Heap.raw_read heap addr))
    [ cells; cells + 1; capacity / 2; capacity - 1 ];
  check "wild reads" 4 (Heap.fault_count heap Wild_read);
  check "wild writes" 12 (Heap.fault_count heap Wild_write);
  check "no other fault" 16 (Heap.total_faults heap);
  check "faults do not grow the array" cells (Heap.materialised heap);
  let strict = Heap.create ~capacity ~max_threads:1 () in
  Alcotest.check_raises "strict read raises" (Mem.Fault (Wild_read, capacity - 1)) (fun () ->
      ignore (Heap.read strict (capacity - 1)))

(* [capacity] stays an exact limit: the last word is allocatable, the
   next one is not. *)
let test_heap_out_of_memory_at_capacity () =
  let capacity = 1 lsl 16 in
  let heap = Heap.create ~capacity ~max_threads:1 () in
  let base = Heap.alloc_region heap (capacity - 2) in
  check "region starts after null" 1 base;
  let last = Heap.alloc_region heap 1 in
  check "last word allocatable" (capacity - 1) last;
  Heap.write heap last 7;
  check "last word usable" 7 (Heap.read heap last);
  check "grown to capacity" capacity (Heap.materialised heap);
  Alcotest.check_raises "one word more is out of memory" (Mem.Fault (Out_of_memory, capacity))
    (fun () -> ignore (Heap.alloc_region heap 1));
  let lax = Heap.create ~strict:false ~capacity ~max_threads:1 () in
  check "malloc beyond capacity returns null" 0 (Heap.malloc lax ~tid:0 (2 * capacity));
  check "and records one fault" 1 (Heap.fault_count lax Out_of_memory)

(* Creating a heap costs O(1) OCaml words besides the shadow (one byte
   per word of capacity): no cell is made for a word nobody allocated. *)
let test_heap_create_is_lazy () =
  let words () =
    let s = Gc.quick_stat () in
    s.minor_words +. s.major_words -. s.promoted_words
  in
  let capacity = 1 lsl 24 in
  let before = words () in
  let heap = Heap.create ~capacity ~max_threads:2 () in
  let allocated = words () -. before in
  let shadow = float_of_int (capacity / (Sys.word_size / 8)) in
  ignore (Sys.opaque_identity heap);
  Alcotest.(check bool)
    (Fmt.str "%.0f words beyond the shadow" (allocated -. shadow))
    true
    (allocated -. shadow < 65536.)

(* ------------------------------------------------------------------ *)

let per_backend name f =
  List.map
    (fun r -> Alcotest.test_case (Fmt.str "%s [%s]" name r.rname) `Quick (fun () -> f r ()))
    runners

let ds_kinds = [ "list"; "hash"; "skiplist"; "lazy-list"; "split-hash" ]

let () =
  Alcotest.run "backends"
    [
      ( "rt-core",
        per_backend "memory roundtrip + uaf" test_memory_roundtrip
        @ per_backend "cas/faa" test_atomics
        @ per_backend "double free detected" test_double_free_detected
        @ per_backend "frames" test_frames
        @ per_backend "clock + rand" test_clock_and_rand
        @ per_backend "spawn/join" test_spawn_join
        @ per_backend "signal delivery" test_signal_delivery );
      ( "sync",
        per_backend "spinlock" test_spinlock
        @ per_backend "ticket lock" test_ticket_lock
        @ per_backend "barrier" test_barrier );
      ( "smr",
        List.concat_map
          (fun d -> per_backend d.Registry.id (fun r -> test_scheme r d))
          Registry.all );
      ("ds", List.concat_map (fun k -> per_backend k (fun r -> test_ds r k)) ds_kinds);
      ( "native-stress",
        [
          Alcotest.test_case "threadscan retire/scan/free under parallelism" `Quick
            test_native_stress;
          Alcotest.test_case "multi-domain pool completes work" `Quick
            test_native_parallel_speedup_shape;
        ] );
      ( "native-heap",
        [
          Alcotest.test_case "concurrent growth loses no access" `Quick
            test_heap_growth_concurrent;
          Alcotest.test_case "past the materialised cells is wild" `Quick
            test_heap_wild_past_materialised;
          Alcotest.test_case "out of memory exactly at capacity" `Quick
            test_heap_out_of_memory_at_capacity;
          Alcotest.test_case "creation allocates O(1) words" `Quick test_heap_create_is_lazy;
        ] );
      ( "native-ladder",
        [
          Alcotest.test_case "proxy scan keeps a stalled holder's node alive" `Quick
            test_native_ladder_proxy_scan;
          Alcotest.test_case "crash is reaped and a fresh thread re-admits" `Quick
            test_native_ladder_reap_readmit;
          Alcotest.test_case "heartbeat takeover of a stalled reclaimer" `Quick
            test_native_ladder_heartbeat_takeover;
          Alcotest.test_case "fault-free hash churn never times out, suspects or reaps" `Quick
            test_native_fault_free_ladder_silent;
        ] );
      ( "native-join",
        [
          Alcotest.test_case "parked joiner runs every signal handler" `Quick
            test_parked_joiner_runs_handler;
          Alcotest.test_case "parked joiner released by the target's exit" `Quick
            test_parked_joiner_released_by_exit;
          Alcotest.test_case "parked joiner released by a crash of itself" `Quick
            test_parked_joiner_released_by_crash;
          Alcotest.test_case "parked joiner released by the watchdog's kill" `Quick
            test_parked_joiner_released_by_watchdog;
          Alcotest.test_case "a resending sender cannot trap its target in delivery" `Quick
            test_signal_storm_cannot_starve_target;
        ] );
    ]

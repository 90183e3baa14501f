(* The layer cost ladder: what one shared access costs at each layer.

     atomic_get      raw [Atomic.get] on an OCaml atomic
     heap_read       [Ts_par.Heap.read]: the same atomic plus the shadow check
     rt_read         [Ts_rt.read] from a native runtime thread: dispatch,
                     per-thread lookup, signal poll and bookkeeping on top
     rt_malloc_free  [Ts_rt.malloc] + [Ts_rt.free] of one list-node block
     smr_retire      ThreadScan [retire] into a buffer with room (no phase)

   The first four are Bechamel OLS estimates, in the idiom of the
   substrate microbenchmarks in [bench/main.ml].  A retire only stays
   phase-free while its thread's delete buffer has room, which a Bechamel
   sampling loop cannot promise, so [smr_retire] is timed by hand: fill
   an empty buffer exactly to capacity, time the batch, then flush
   outside the clock.  The median batch is reported. *)

module Smr = Ts_smr.Smr
module Registry = Ts_scheme.Registry

let quota = 0.2

let ols_ns name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:false ~quota:(Time.second quota) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] test in
  let results = Analyze.all ols instance raw in
  match Hashtbl.fold (fun _ o acc -> Analyze.OLS.estimates o :: acc) results [] with
  | [ Some [ est ] ] -> est
  | _ -> nan

(* ThreadScan's shipped per-thread delete buffer: a retire into a buffer
   holding fewer entries than this never starts a phase. *)
let buffer = 64

let retire_ns () =
  let built =
    Registry.build
      { Registry.max_threads = 4; hazard_slots = 3; epoch_batch = 64; budgets = None }
      (Registry.spec "threadscan")
  in
  let smr = built.Registry.smr in
  let samples = ref [] in
  let until = Tracer.now_ns () + int_of_float (quota *. 1e9) in
  while Tracer.now_ns () < until do
    smr.Smr.thread_init ();
    let blocks = Array.init buffer (fun _ -> Ts_umem.Ptr.of_addr (Ts_rt.malloc 3)) in
    let t0 = Tracer.now_ns () in
    Array.iter smr.Smr.retire blocks;
    let t1 = Tracer.now_ns () in
    samples := float_of_int (t1 - t0) /. float_of_int buffer :: !samples;
    smr.Smr.thread_exit ();
    smr.Smr.flush ()
  done;
  let a = Array.of_list !samples in
  Array.sort compare a;
  a.(Array.length a / 2)

let run () =
  let atomic = Atomic.make 1 in
  let heap = Ts_par.Heap.create ~capacity:4096 ~max_threads:1 () in
  let addr = Ts_par.Heap.malloc heap ~tid:0 4 in
  let outside =
    [
      ("ladder.atomic_get_ns", ols_ns "atomic_get" (fun () -> Atomic.get atomic));
      ("ladder.heap_read_ns", ols_ns "heap_read" (fun () -> Ts_par.Heap.read heap addr));
    ]
  in
  let inside = ref [] in
  let config =
    { Ts_par.Runtime.default_config with pool = 1; max_threads = 4; mem_capacity = 1 lsl 18 }
  in
  ignore
    (Ts_par.Runtime.run ~config (fun () ->
         let a = Ts_rt.malloc 4 in
         let read = ols_ns "rt_read" (fun () -> Ts_rt.read a) in
         let mf = ols_ns "rt_malloc_free" (fun () -> Ts_rt.free (Ts_rt.malloc 3)) in
         inside :=
           [
             ("ladder.rt_read_ns", read);
             ("ladder.rt_malloc_free_ns", mf);
             ("ladder.smr_retire_ns", retire_ns ());
           ]));
  outside @ !inside

(** Quiescence/epoch-based reclamation — the paper's "Epoch" baseline, in
    the exact formulation §6 describes: each thread keeps a counter that it
    bumps before and after every operation (odd = inside an operation), and
    a thread that has retired [batch] nodes waits, at its next operation
    boundary, until it has seen every mid-operation thread's counter change;
    the batch is then safe to free.

    The "Slow Epoch" variant is obtained with [~errant:(tid, delay)]: that
    thread busy-waits [delay] cycles *inside* an operation whenever its
    batch fills, keeping its counter odd — every other thread's reclamation
    then stalls behind it, which is precisely the sensitivity the paper's
    Figure 3 demonstrates. *)

val create :
  ?batch:int ->
  ?errant:int * int ->
  ?patience:int ->
  ?skip_fence:bool ->
  max_threads:int ->
  unit ->
  Ts_smr.Smr.t
(** [batch] (default 256) is the per-thread retire count that triggers a
    cleanup.  Must run inside the simulator (allocates the counter array).

    [skip_fence] (default false) seeds the classic epoch bug for the
    analyzer's test suite: the store announcing the odd epoch is issued
    without its fence, rendered TSO-honestly by deferring the shared
    counter write to the next operation boundary.  A concurrent cleanup
    can then read a stale even counter and free a node the thread is
    still traversing — a use-after-free the heap sanitizer and the
    free-vs-read race report both catch.  The scheme is named
    ["epoch-nofence"].

    [patience] bounds every quiescence wait to that many
    {!Ts_rt.wall_cycles} (virtual cycles on the simulator, wall time at
    [stall_ns_per_cycle] natively; the ["stall-cycles"] extra uses the
    same clock): on timeout the cleanup (or flush) is abandoned and nothing is freed —
    the thread keeps running instead of spinning forever behind a crashed
    or stalled peer, but its limbo list grows without bound (tracked by
    the ["quiescence-gaveups"] and ["unreclaimed-peak"] extras).  This is
    deliberate: epoch has no per-pointer information, so a thread that
    never quiesces makes every retired node unreclaimable — the contrast
    the [ablate-crash] experiment measures against ThreadScan's
    suspect/reap ladder (see docs/FAULTS.md). *)

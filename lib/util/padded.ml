(* Cache-line padding for per-thread hot records.

   OCaml allocates small blocks back to back, so two threads' contexts —
   or two [Atomic.t] cells made in the same loop — routinely share a
   cache line, and every write by one thread invalidates the other's
   line (false sharing).  [copy_as_padded] re-allocates a block with its
   size rounded up to whole cache lines plus one full line of slack, so
   no other allocation can land on the lines its hot fields occupy.

   The technique is the [Obj]-level copy used by multicore libraries:
   allocate a scannable block of the padded size, copy the real fields,
   initialise the padding fields to the immediate [0] (the GC scans
   them, so they must be valid values).  Mutation through the returned
   value works because field offsets are unchanged; the original block
   becomes garbage.

   Only plain scannable blocks (tag 0 records, [Atomic.t] cells) are
   padded; anything else — immediates, float records, custom blocks —
   is returned unchanged, which is always correct, just unpadded. *)

(* 8 fields x 8 bytes = 64 B, one x86/arm cache line. *)
let line_words = 8

let[@inline never] copy x =
  let src = Obj.repr x in
  if (not (Obj.is_block src)) || Obj.tag src <> 0 then x
  else begin
    let n = Obj.size src in
    let padded = ((n + line_words - 1) / line_words * line_words) + line_words in
    let dst = Obj.new_block 0 padded in
    for i = 0 to n - 1 do
      Obj.set_field dst i (Obj.field src i)
    done;
    for i = n to padded - 1 do
      Obj.set_field dst i (Obj.repr 0)
    done;
    Obj.obj dst
  end

let atomic v = copy (Atomic.make v) (* tslint: allow facade -- the padding shim constructs the cell it isolates *)

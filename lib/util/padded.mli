(** Cache-line padding for per-thread hot records (false-sharing
    avoidance).

    OCaml allocates small blocks contiguously, so records or [Atomic.t]
    cells created together share cache lines; when different threads
    write them, every write invalidates the neighbours' line. *)

val line_words : int
(** Words per cache line (8 x 8 B = 64 B). *)

val copy : 'a -> 'a
(** [copy x] returns a copy of [x] whose block is padded out to whole
    cache lines (plus one line of slack) so no other allocation shares
    its lines.  Field offsets are unchanged, so mutation through the
    copy works; use the copy and drop the original.  Values that are not
    plain scannable blocks (immediates, float records, custom blocks)
    are returned unchanged. *)

val atomic : int -> int Atomic.t (* tslint: allow facade -- the isolated cell's type is necessarily Atomic.t *)
(** [atomic v] is [copy (Atomic.make v)]: a line-isolated atomic. *)

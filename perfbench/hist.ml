(* Log-linear latency histogram in nanoseconds.

   Values below 2048 ns land in exact 1 ns buckets; above that every
   power-of-two octave is split into 1024 linear buckets, so a reported
   percentile is within 0.1 % of the recorded value.  Recording is two
   shifts and an array increment: cheap enough to sit on every timed
   operation, and allocation-free.  One histogram per recording thread;
   {!merge} folds them after the threads have been joined. *)

let sub_bits = 10
let size = 32 lsl sub_bits

type t = { counts : int array; mutable n : int; mutable sum : int; mutable max : int }

let create () = { counts = Array.make size 0; n = 0; sum = 0; max = 0 }

let index v =
  if v < 2 lsl sub_bits then v
  else begin
    let e = ref 0 in
    while v lsr !e >= 2 lsl sub_bits do
      incr e
    done;
    let i = (!e lsl sub_bits) + (v lsr !e) in
    if i >= size then size - 1 else i
  end

let add h v =
  let v = if v < 0 then 0 else v in
  let i = index v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.n <- h.n + 1;
  h.sum <- h.sum + v;
  if v > h.max then h.max <- v

let merge_into ~into h =
  Array.iteri (fun i c -> if c <> 0 then into.counts.(i) <- into.counts.(i) + c) h.counts;
  into.n <- into.n + h.n;
  into.sum <- into.sum + h.sum;
  if h.max > into.max then into.max <- h.max

let merge hs =
  let into = create () in
  List.iter (fun h -> merge_into ~into h) hs;
  into

let count h = h.n
let total h = h.sum
let max_value h = h.max

(* Midpoint of bucket [i]. *)
let value_of i =
  if i < 2 lsl sub_bits then float_of_int i
  else begin
    let e = (i lsr sub_bits) - 1 in
    let m = i - (e lsl sub_bits) in
    float_of_int (m lsl e) +. (float_of_int ((1 lsl e) - 1) /. 2.0)
  end

(* Nearest-rank percentile, [q] in (0, 1].  0 on an empty histogram. *)
let percentile h q =
  if h.n = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.n))) in
    let rec go i acc =
      let acc = acc + h.counts.(i) in
      if acc >= rank || i = size - 1 then value_of i else go (i + 1) acc
    in
    go 0 0
  end

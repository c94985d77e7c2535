(* Set-associative cache model with true LRU replacement.

   Only tags are modelled — the simulator tracks timing, not data (data
   lives in the workloads' native arrays).  Writes allocate (write-back,
   write-allocate, like the P54C L1D in WB mode); dirty-line writeback
   cost is charged by the caller via the [evicted_dirty] result.

   Storage is three flat arrays, one per field, indexed
   [set * assoc + way], that back only the sets [0, covered).  An engine
   owns an L1 and an L2 for each of the chip's 48 cores, and a run
   touches a few of them and, in each, mostly low sets (addresses come
   from bump allocators), so [covered] starts at 0 and doubles when an
   access lands on a higher set: an untouched cache costs one small
   record, and a run that uses 16 lines of an L2 pays for 16 sets, not
   2 048.  A set that is not covered is all invalid lines, which is
   what growth fills in, so the LRU choice never sees the difference.
   Line and set indices are a shift and a mask, which is why [create]
   rejects a line size or a set count that is not a power of two. *)

type result = { hit : bool; evicted_dirty : bool }

(* [access_code] results *)
let hit = 0
let miss = 1
let miss_evict_dirty = 2

type t = {
  assoc : int;
  line_shift : int;                (* log2 of the line size *)
  set_shift : int;                 (* log2 of the set count *)
  set_mask : int;                  (* set count - 1 *)
  mutable covered : int;           (* sets backed by the arrays below *)
  (* per-line fields of the covered sets; an invalid line has tag -1,
     stamp 0 and is clean *)
  mutable tags : int array;
  mutable stamps : int array;      (* LRU: tick of the last use *)
  mutable dirty : bool array;
  mutable tick : int;              (* LRU clock *)
  mutable hits : int;
  mutable misses : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create ~size_bytes ~line_bytes ~assoc =
  if size_bytes <= 0 || line_bytes <= 0 || assoc <= 0 then
    invalid_arg "Cache.create: non-positive geometry";
  if size_bytes mod line_bytes <> 0 then
    invalid_arg "Cache.create: size not a whole number of lines";
  let lines = size_bytes / line_bytes in
  if lines mod assoc <> 0 then
    invalid_arg "Cache.create: lines not divisible by associativity";
  let set_count = lines / assoc in
  if not (is_pow2 line_bytes && is_pow2 set_count) then
    invalid_arg "Cache.create: line size or set count not a power of two";
  {
    assoc;
    line_shift = log2 line_bytes;
    set_shift = log2 set_count;
    set_mask = set_count - 1;
    covered = 0;
    tags = [||];
    stamps = [||];
    dirty = [||];
    tick = 0;
    hits = 0;
    misses = 0;
  }

(* Double [covered] until it includes [set]; the new sets are invalid. *)
let cover t set =
  let covered = ref (Int.max 1 t.covered) in
  while !covered <= set do
    covered := 2 * !covered
  done;
  let grow a fill =
    let b = Array.make (!covered * t.assoc) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.tags <- grow t.tags (-1);
  t.stamps <- grow t.stamps 0;
  t.dirty <- grow t.dirty false;
  t.covered <- !covered

(* Allocation-free access used on the simulator's per-event hot path
   (once its set is covered). *)
let access_code t ~write addr =
  t.tick <- t.tick + 1;
  let la = addr lsr t.line_shift in
  let set = la land t.set_mask in
  if set >= t.covered then cover t set;
  let base = set * t.assoc in
  let tag = la lsr t.set_shift in
  let tags = t.tags and stamps = t.stamps in
  let found = ref (-1) in
  for i = base to base + t.assoc - 1 do
    if tags.(i) = tag then found := i
  done;
  let i = !found in
  if i >= 0 then begin
    stamps.(i) <- t.tick;
    if write then t.dirty.(i) <- true;
    t.hits <- t.hits + 1;
    hit
  end
  else begin
    t.misses <- t.misses + 1;
    (* evict the least recently used way *)
    let v = ref base in
    for i = base + 1 to base + t.assoc - 1 do
      if stamps.(i) < stamps.(!v) then v := i
    done;
    let v = !v in
    let evicted_dirty = tags.(v) >= 0 && t.dirty.(v) in
    tags.(v) <- tag;
    t.dirty.(v) <- write;
    stamps.(v) <- t.tick;
    if evicted_dirty then miss_evict_dirty else miss
  end

let access t ~write addr =
  match access_code t ~write addr with
  | c when c = hit -> { hit = true; evicted_dirty = false }
  | c when c = miss -> { hit = false; evicted_dirty = false }
  | _ -> { hit = false; evicted_dirty = true }

(* The tick keeps running across a flush: stamps restart at 0 and every
   later use is stamped above them. *)
let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  Array.fill t.dirty 0 (Array.length t.dirty) false

let hits t = t.hits
let misses t = t.misses

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total

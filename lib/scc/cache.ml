(* Set-associative cache model with true LRU replacement.

   Only tags are modelled — the simulator tracks timing, not data (data
   lives in the workloads' native arrays).  Writes allocate (write-back,
   write-allocate, like the P54C L1D in WB mode); dirty-line writeback
   cost is charged by the caller via the [evicted_dirty] result.

   Storage is three flat arrays, one per field, indexed
   [set * assoc + way].  An engine owns an L1 and an L2 for each of the
   chip's 48 cores, and most runs touch only a few of them, so the
   arrays are allocated on a cache's first access rather than in
   [create]: an untouched cache costs one small record. *)

type result = { hit : bool; evicted_dirty : bool }

(* [access_code] results *)
let hit = 0
let miss = 1
let miss_evict_dirty = 2

type t = {
  set_count : int;
  assoc : int;
  line_bytes : int;
  (* per-line fields, [||] until the first access; an invalid line has
     tag -1, stamp 0 and is clean *)
  mutable tags : int array;
  mutable stamps : int array;      (* LRU: tick of the last use *)
  mutable dirty : bool array;
  mutable tick : int;              (* LRU clock *)
  mutable hits : int;
  mutable misses : int;
}

let create ~size_bytes ~line_bytes ~assoc =
  if size_bytes <= 0 || line_bytes <= 0 || assoc <= 0 then
    invalid_arg "Cache.create: non-positive geometry";
  if size_bytes mod line_bytes <> 0 then
    invalid_arg "Cache.create: size not a whole number of lines";
  let lines = size_bytes / line_bytes in
  if lines mod assoc <> 0 then
    invalid_arg "Cache.create: lines not divisible by associativity";
  {
    set_count = lines / assoc;
    assoc;
    line_bytes;
    tags = [||];
    stamps = [||];
    dirty = [||];
    tick = 0;
    hits = 0;
    misses = 0;
  }

let materialize t =
  let lines = t.set_count * t.assoc in
  t.tags <- Array.make lines (-1);
  t.stamps <- Array.make lines 0;
  t.dirty <- Array.make lines false

(* Allocation-free access used on the simulator's per-event hot path
   (after the cache's first access). *)
let access_code t ~write addr =
  if Array.length t.tags = 0 then materialize t;
  t.tick <- t.tick + 1;
  let la = addr / t.line_bytes in
  let base = (la mod t.set_count) * t.assoc in
  let tag = la / t.set_count in
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

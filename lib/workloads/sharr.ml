(* Simulated arrays: native OCaml data (so benchmarks compute verifiable
   results) paired with a simulated address layout (so every access is
   timed through the memory hierarchy).

   Layouts:
   - [Contiguous]: one base address — private DRAM or off-chip shared;
   - [Striped]: round-robin chunks across MPB slices, the layout
     [Scc.Memmap.alloc_mpb_striped] produces. *)

type layout =
  | Contiguous of int                               (* base address *)
  | Striped of { chunks : int array; chunk_bytes : int }

type t = {
  name : string;
  data : float array;
  elt_bytes : int;
  layout : layout;
}

let create ~name ~elts ~elt_bytes layout =
  { name; data = Array.make elts 0.0; elt_bytes; layout }

let length t = Array.length t.data

let data t = t.data

let addr_of t i =
  let byte = i * t.elt_bytes in
  match t.layout with
  | Contiguous base -> base + byte
  | Striped { chunks; chunk_bytes } ->
      let chunk = byte / chunk_bytes in
      let within = byte mod chunk_bytes in
      if chunk >= Array.length chunks then
        invalid_arg
          (Printf.sprintf "Sharr.addr_of: %s[%d] beyond striped layout"
             t.name i)
      else chunks.(chunk) + within

(* Timed element access. *)
let get (api : Scc.Engine.api) t i =
  api.Scc.Engine.load (addr_of t i) ~bytes:t.elt_bytes;
  t.data.(i)

let set (api : Scc.Engine.api) t i v =
  api.Scc.Engine.store (addr_of t i) ~bytes:t.elt_bytes;
  t.data.(i) <- v

(* Timing-only block access over elements [off, off+len): issues one
   engine access per contiguous run (stripe chunks split runs).  The
   caller does the data work natively. *)
let touch_block (api : Scc.Engine.api) ~write t ~off ~len =
  if len > 0 then begin
    if off < 0 || off + len > length t then
      invalid_arg (Printf.sprintf "Sharr.touch_block: %s out of range" t.name);
    let issue addr bytes =
      if write then api.Scc.Engine.store addr ~bytes
      else api.Scc.Engine.load addr ~bytes
    in
    match t.layout with
    | Contiguous base ->
        issue (base + (off * t.elt_bytes)) (len * t.elt_bytes)
    | Striped { chunks = _; chunk_bytes } ->
        let start_byte = off * t.elt_bytes in
        let end_byte = (off + len) * t.elt_bytes in
        let rec go byte =
          if byte < end_byte then begin
            let chunk_end = (byte / chunk_bytes + 1) * chunk_bytes in
            let upto = min end_byte chunk_end in
            issue (addr_of t (byte / t.elt_bytes)) (upto - byte);
            go upto
          end
        in
        go start_byte
  end

let load_block api t ~off ~len = touch_block api ~write:false t ~off ~len
let store_block api t ~off ~len = touch_block api ~write:true t ~off ~len

(* The contiguous index range unit [u] of [units] owns in an [n]-element
   problem: the paper's divide-and-conquer partitioning by thread ID. *)
let chunk_range ~n ~units ~u =
  let per = n / units in
  let lo = u * per in
  let hi = if u = units - 1 then n else lo + per in
  (lo, hi)

(* Address-space layout and allocation.

   The simulator tracks timing, not data, so an "address" only needs to
   identify which physical resource serves it.  Addresses are 63-bit ints:

     bits 40..41  region kind (0 private, 1 shared DRAM, 2 MPB)
     bits 32..39  owning core (private and MPB regions; 0 for shared)
     bits  0..31  byte offset within the region

   Private pages are cacheable; shared DRAM pages are uncacheable (the
   SCC's page-table configuration for shared memory); MPB space is the
   on-die SRAM.  Each region has a simple line-aligned bump allocator; the
   MPB enforces its 8 KB-per-core capacity, and a DRAM region ends where
   its offset no longer fits the 32-bit field. *)

type region =
  | Private of int      (* owning core *)
  | Shared_dram
  | Mpb of int          (* owning core *)

exception Out_of_memory of region

let region_to_string = function
  | Private core -> Printf.sprintf "private(core %d)" core
  | Shared_dram -> "shared-dram"
  | Mpb core -> Printf.sprintf "MPB(core %d)" core

let kind_shift = 40
let core_shift = 32
let offset_mask = (1 lsl 32) - 1

let encode ~kind ~core ~offset =
  (kind lsl kind_shift) lor (core lsl core_shift) lor offset

let addr_of ~region ~offset =
  match region with
  | Private core -> encode ~kind:0 ~core ~offset
  | Shared_dram -> encode ~kind:1 ~core:0 ~offset
  | Mpb core -> encode ~kind:2 ~core ~offset

let region_of_addr addr =
  let kind = (addr lsr kind_shift) land 0x3 in
  let core = (addr lsr core_shift) land 0xff in
  match kind with
  | 0 -> Private core
  | 1 -> Shared_dram
  | 2 -> Mpb core
  | _ -> invalid_arg "Memmap.region_of_addr: bad address"

let offset_of_addr addr = addr land offset_mask

(* Address of a byte offset within a core's MPB slice. *)
let addr_of_mpb ~core ~offset = addr_of ~region:(Mpb core) ~offset

type t = {
  cfg : Config.t;
  mutable shared_off : int;
  private_off : int array;   (* per core *)
  mpb_off : int array;       (* per core *)
}

(* DRAM offsets start one line in, so their offset 0 is a guard: no
   allocation ever returns an address a null (or null-adjacent) pointer
   could alias — a raw 0 decodes to Private(0) offset 0 — letting the
   interpreter diagnose null dereferences.  MPB slices are not guarded:
   their 8 KB capacity is precious and unreachable from a null pointer. *)
let create (cfg : Config.t) =
  let n = Config.n_cores cfg in
  let guard = cfg.Config.line_bytes in
  { cfg; shared_off = guard;
    private_off = Array.make n guard;
    mpb_off = Array.make n 0 }

let align_up line n = (n + line - 1) / line * line

(* Bytes a region holds: an MPB slice its configured share, a DRAM region
   what the offset field reaches.  Past that, a DRAM offset would carry
   into the owner bits and name another core's region. *)
let capacity t = function
  | Mpb _ -> t.cfg.Config.mpb_bytes_per_core
  | Private _ | Shared_dram -> offset_mask + 1

let alloc t region ~bytes =
  if bytes <= 0 then invalid_arg "Memmap.alloc: non-positive size";
  let offset =
    match region with
    | Shared_dram -> t.shared_off
    | Private core -> t.private_off.(core)
    | Mpb core -> t.mpb_off.(core)
  in
  let room = capacity t region - offset in
  (* [bytes] first: rounding a size near [max_int] up would wrap *)
  if bytes > room then raise (Out_of_memory region);
  let rounded = align_up t.cfg.Config.line_bytes bytes in
  if rounded > room then raise (Out_of_memory region);
  let next = offset + rounded in
  (match region with
  | Shared_dram -> t.shared_off <- next
  | Private core -> t.private_off.(core) <- next
  | Mpb core -> t.mpb_off.(core) <- next);
  addr_of ~region ~offset

(* Whether [addr] names a region of this chip: a region kind (no bit set
   above it) and an owning core the chip has.  Shared DRAM is one region,
   so its addresses carry owner 0: another owner would alias it.  Every
   interpreted load and store asks, hence the inlining. *)
let[@inline] on_chip t addr =
  let kind = addr lsr kind_shift and owner = (addr lsr core_shift) land 0xff in
  if kind = 1 then owner = 0
  else kind <= 2 && owner < Array.length t.mpb_off

(* One past the highest allocated byte of [addr]'s region (its bump
   offset); 0 for an address that names no region of this chip. *)
let extent t addr =
  if not (on_chip t addr) then 0
  else
    let core = (addr lsr core_shift) land 0xff in
    match addr lsr kind_shift with
    | 0 -> t.private_off.(core)
    | 1 -> t.shared_off
    | _ -> t.mpb_off.(core)

let mpb_used t core = t.mpb_off.(core)

let shared_used t = t.shared_off

(* Allocate shared space striped across the MPB slices of [cores]: chunk i
   goes to core (i mod n).  Returns the per-chunk base addresses.  This is
   how an array larger than one slice still lands on chip. *)
let alloc_mpb_striped t ~cores ~bytes =
  let n = List.length cores in
  if n = 0 then invalid_arg "Memmap.alloc_mpb_striped: no cores";
  let per = align_up t.cfg.Config.line_bytes ((bytes + n - 1) / n) in
  List.map (fun core -> alloc t (Mpb core) ~bytes:per) cores

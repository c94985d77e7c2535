(** Address-space layout and allocation.

    Addresses identify the physical resource serving them: a core's
    cacheable private DRAM, the uncacheable shared DRAM, or a core's MPB
    slice.  Each region has a line-aligned bump allocator; the MPB
    enforces its per-core capacity, and a DRAM region holds 2{^32}
    bytes, what the address's offset field reaches. *)

type region =
  | Private of int  (** owning core *)
  | Shared_dram
  | Mpb of int      (** owning core *)

exception Out_of_memory of region

val region_to_string : region -> string

val region_of_addr : int -> region
val offset_of_addr : int -> int

val addr_of_mpb : core:int -> offset:int -> int
(** Address of a byte offset within a core's MPB slice. *)

type t

val create : Config.t -> t

val alloc : t -> region -> bytes:int -> int
(** Line-aligned allocation; returns the base address.
    @raise Out_of_memory when an MPB slice is exhausted, or when a
    private or shared-DRAM allocation would end past 2{^32} bytes.
    @raise Invalid_argument on non-positive sizes. *)

val alloc_mpb_striped : t -> cores:int list -> bytes:int -> int list
(** Allocate shared space striped across the MPB slices of [cores];
    returns per-chunk base addresses. *)

val on_chip : t -> int -> bool
(** Whether [addr] names a region of this chip: its region kind is one
    of the three and its owning core is one the chip has, 0 for shared
    DRAM. *)

val extent : t -> int -> int
(** [extent t addr]: one past the highest allocated byte offset of the
    region [addr] decodes to (the region's line-aligned bump offset), or
    0 when it names no region of this chip (see {!on_chip}). *)

val mpb_used : t -> int -> int
val shared_used : t -> int

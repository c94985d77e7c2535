(** Set-associative cache model with true LRU replacement.

    Only tags are modelled — the simulator tracks timing, not data.
    Write-back, write-allocate. *)

type t

type result = { hit : bool; evicted_dirty : bool }

val create : size_bytes:int -> line_bytes:int -> assoc:int -> t
(** Allocates no line storage: the sets are backed as accesses reach
    them.
    @raise Invalid_argument on inconsistent geometry, or when the line
    size or the set count is not a power of two. *)

val access : t -> write:bool -> int -> result
(** Touch the line containing the byte address; fills on miss and reports
    whether a dirty victim was evicted. *)

val hit : int
val miss : int
val miss_evict_dirty : int

val access_code : t -> write:bool -> int -> int
(** Allocation-free [access] for the simulator's hot path: returns
    {!hit}, {!miss}, or {!miss_evict_dirty}. *)

val flush : t -> unit
(** Invalidate everything (e.g. at process start). *)

val hits : t -> int
val misses : t -> int
val hit_rate : t -> float

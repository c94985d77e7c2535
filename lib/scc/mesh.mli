(** The SCC's 6x4 tile mesh: hop counts, core-to-tile mapping, and the
    assignment of cores to the four corner memory controllers. *)

type t

val create : Config.t -> t

val tile_of_core : t -> int -> int

val hops : t -> from_tile:int -> to_tile:int -> int
(** XY-routing distance. *)

val n_mcs : t -> int

val mc_of_core : t -> int -> int
(** The controller serving a core's memory: its nearest corner. *)

val hops_core_to_mc : t -> core:int -> mc:int -> int

val hops_core_to_core : t -> from_core:int -> to_core:int -> int

val traverse_ps : t -> hops:int -> int
(** One-way mesh traversal time in picoseconds. *)

val min_hop_ps : t -> int
(** Minimum latency for one tile to affect another (a single-hop
    traversal); no cross-tile interaction can land sooner. *)

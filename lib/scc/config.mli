(** Configuration of the simulated SCC chip.

    Structural numbers follow the published part; frequencies default to
    the paper's Table 6.1 operating point (800 MHz cores, 1600 MHz mesh,
    1066 MHz DDR3).  Latency constants are expressed in the cycles of the
    component that imposes them and converted to picoseconds at simulation
    time. *)

type t = {
  mesh_cols : int;
  mesh_rows : int;
  cores_per_tile : int;
  core_freq_mhz : int;
  mesh_freq_mhz : int;
  dram_freq_mhz : int;
  l1_bytes : int;
  l1_assoc : int;
  l1_hit_cycles : int;
  l2_bytes : int;
  l2_assoc : int;
  l2_hit_cycles : int;
  line_bytes : int;
  mpb_bytes_per_core : int;
  mpb_base_cycles : int;
  mesh_cycles_per_hop : int;
  n_mcs : int;
  dram_access_cycles : int;
  mc_service_cycles : int;
  dram_base_cycles : int;
  quantum_cycles : int;
  context_switch_cycles : int;
  posted_shared_writes : bool;
      (** model the SCC's write-combine buffer: uncached shared stores
          retire once issued while the line drains in the background
          (default false; the calibrated figures use blocking stores) *)
}

val default : t
(** The 48-core SCC at the paper's operating point. *)

val n_tiles : t -> int
val n_cores : t -> int

val ps_per_cycle : int -> int
(** Picoseconds per cycle at a frequency in MHz. *)

val core_cycles_ps : t -> int -> int
val mesh_cycles_ps : t -> int -> int
val dram_cycles_ps : t -> int -> int

val table_6_1 : t -> rcce_cores:int -> pthread_threads:int -> string list list
(** The paper's Table 6.1 as header and rows. *)

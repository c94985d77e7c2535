(* Configuration of the simulated SCC chip.

   Structural numbers follow the published part (Howard et al., JSSC 2011;
   Mattson et al., SC 2010): 24 tiles on a 6x4 mesh, two P54C cores per
   tile, per-core L1/L2, 8 KB MPB slice per core, four DDR3 memory
   controllers at the mesh corners.  Frequencies default to the paper's
   Table 6.1 operating point: 800 MHz cores, 1600 MHz mesh, 1066 MHz
   DDR3.

   Latency constants are in the unit of the component that imposes them
   (core cycles, mesh cycles per hop, DRAM cycles) and converted to a
   picosecond timebase at simulation time, so changing a frequency changes
   timing the way DVFS does on the real part. *)

type t = {
  (* topology *)
  mesh_cols : int;
  mesh_rows : int;
  cores_per_tile : int;
  (* Table 6.1 *)
  core_freq_mhz : int;
  mesh_freq_mhz : int;
  dram_freq_mhz : int;
  (* per-core caches (P54C: 8 KB write-back L1D; 256 KB unified L2) *)
  l1_bytes : int;
  l1_assoc : int;
  l1_hit_cycles : int;          (* core cycles *)
  l2_bytes : int;
  l2_assoc : int;
  l2_hit_cycles : int;          (* core cycles *)
  line_bytes : int;
  (* message passing buffer *)
  mpb_bytes_per_core : int;
  mpb_base_cycles : int;        (* core cycles to reach the MPB ring *)
  (* mesh *)
  mesh_cycles_per_hop : int;    (* mesh cycles, one direction *)
  (* memory controllers *)
  n_mcs : int;
  dram_access_cycles : int;     (* DRAM cycles once at the controller *)
  mc_service_cycles : int;      (* DRAM cycles of controller occupancy per line *)
  dram_base_cycles : int;       (* core cycles to miss out of the core *)
  (* single-core thread scheduling (the Pthread baseline) *)
  quantum_cycles : int;         (* core cycles per time slice *)
  context_switch_cycles : int;  (* core cycles per switch *)
  (* model option: posted (write-combined) uncached shared stores — the
     SCC's write-combine buffer lets an uncached store retire once issued
     while the line drains to the controller in the background.  Off by
     default: the calibrated figures use blocking stores. *)
  posted_shared_writes : bool;
}

let default =
  {
    mesh_cols = 6;
    mesh_rows = 4;
    cores_per_tile = 2;
    core_freq_mhz = 800;
    mesh_freq_mhz = 1600;
    dram_freq_mhz = 1066;
    l1_bytes = 8 * 1024;
    l1_assoc = 2;
    l1_hit_cycles = 1;
    l2_bytes = 256 * 1024;
    l2_assoc = 4;
    l2_hit_cycles = 18;
    line_bytes = 32;
    mpb_bytes_per_core = 8 * 1024;
    mpb_base_cycles = 8;
    mesh_cycles_per_hop = 4;
    n_mcs = 4;
    dram_access_cycles = 46;
    mc_service_cycles = 36;
    dram_base_cycles = 40;
    quantum_cycles = 10_000;
    context_switch_cycles = 600;
    posted_shared_writes = false;
  }

let n_tiles t = t.mesh_cols * t.mesh_rows

let n_cores t = n_tiles t * t.cores_per_tile

(* --- picosecond timebase ------------------------------------------------ *)

let ps_per_cycle freq_mhz = 1_000_000 / freq_mhz

let core_cycles_ps t n = n * ps_per_cycle t.core_freq_mhz

let mesh_cycles_ps t n = n * ps_per_cycle t.mesh_freq_mhz

let dram_cycles_ps t n = n * ps_per_cycle t.dram_freq_mhz

(* The paper's Table 6.1, as rendered rows. *)
let table_6_1 t ~rcce_cores ~pthread_threads =
  [
    [ ""; "RCCE"; "Pthreads" ];
    [ "Core Frequency";
      Printf.sprintf "%d MHz" t.core_freq_mhz;
      Printf.sprintf "%d MHz" t.core_freq_mhz ];
    [ "Communication Network";
      Printf.sprintf "%d MHz" t.mesh_freq_mhz;
      Printf.sprintf "%d MHz" t.mesh_freq_mhz ];
    [ "Off-chip Memory";
      Printf.sprintf "%d MHz" t.dram_freq_mhz;
      Printf.sprintf "%d MHz" t.dram_freq_mhz ];
    [ "Execution Units";
      Printf.sprintf "%d cores" rcce_cores;
      Printf.sprintf "%d threads" pthread_threads ];
  ]

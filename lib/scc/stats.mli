(** Counters collected during a simulation run. *)

type ctx_stats = {
  mutable compute_ps : int;
  mutable loads : int;
  mutable stores : int;
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable l2_hits : int;
  mutable l2_misses : int;
  mutable private_dram_lines : int;
  mutable shared_dram_lines : int;
  mutable shared_dram_loads : int;
      (** read portion of [shared_dram_lines] — the traffic the
          shared-load optimizer is meant to shrink *)
  mutable shared_dram_stores : int;
  mutable mpb_lines : int;
  mutable mesh_ps : int;
      (** mesh-link picoseconds inside the context's memory accesses,
          out and back *)
  mutable mem_stall_ps : int;
  mutable barrier_wait_ps : int;
  mutable lock_wait_ps : int;
  mutable context_switches : int;
  mutable finish_ps : int;
}

type t = {
  ctxs : ctx_stats array;
  mc_busy_ps : int array;
  mc_requests : int array;
}

val create : n_ctxs:int -> n_mcs:int -> t

val create_ctx : unit -> ctx_stats

val ctx : t -> int -> ctx_stats

val total_loads : t -> int
val total_stores : t -> int
val total_shared_dram_lines : t -> int
val total_shared_dram_loads : t -> int
val total_shared_dram_stores : t -> int
val total_mpb_lines : t -> int

val summary : t -> string

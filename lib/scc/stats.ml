(* Counters collected during a simulation run, per execution context and
   per shared resource. *)

type ctx_stats = {
  mutable compute_ps : int;
  mutable loads : int;            (* line-granularity accesses *)
  mutable stores : int;
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable l2_hits : int;
  mutable l2_misses : int;
  mutable private_dram_lines : int;
  mutable shared_dram_lines : int;
  mutable shared_dram_loads : int;   (* read/write split of shared_dram_lines *)
  mutable shared_dram_stores : int;
  mutable mpb_lines : int;
  mutable mesh_ps : int;          (* link traversal inside memory accesses *)
  mutable mem_stall_ps : int;     (* time blocked on memory *)
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

let create_ctx () =
  {
    compute_ps = 0; loads = 0; stores = 0;
    l1_hits = 0; l1_misses = 0; l2_hits = 0; l2_misses = 0;
    private_dram_lines = 0; shared_dram_lines = 0;
    shared_dram_loads = 0; shared_dram_stores = 0; mpb_lines = 0;
    mesh_ps = 0; mem_stall_ps = 0; barrier_wait_ps = 0; lock_wait_ps = 0;
    context_switches = 0; finish_ps = 0;
  }

let create ~n_ctxs ~n_mcs =
  {
    ctxs = Array.init n_ctxs (fun _ -> create_ctx ());
    mc_busy_ps = Array.make n_mcs 0;
    mc_requests = Array.make n_mcs 0;
  }

let ctx t i = t.ctxs.(i)

let total f t = Array.fold_left (fun acc c -> acc + f c) 0 t.ctxs

let total_loads = total (fun c -> c.loads)
let total_stores = total (fun c -> c.stores)
let total_shared_dram_lines = total (fun c -> c.shared_dram_lines)
let total_shared_dram_loads = total (fun c -> c.shared_dram_loads)
let total_shared_dram_stores = total (fun c -> c.shared_dram_stores)
let total_mpb_lines = total (fun c -> c.mpb_lines)

let summary t =
  Printf.sprintf
    "loads=%d stores=%d l1_hits=%d l2_hits=%d private_lines=%d \
     shared_lines=%d (r=%d w=%d) mpb_lines=%d"
    (total_loads t) (total_stores t)
    (total (fun c -> c.l1_hits) t)
    (total (fun c -> c.l2_hits) t)
    (total (fun c -> c.private_dram_lines) t)
    (total_shared_dram_lines t)
    (total_shared_dram_loads t) (total_shared_dram_stores t)
    (total_mpb_lines t)

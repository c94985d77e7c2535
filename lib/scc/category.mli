(** The categories a context's local-clock advance is charged to, and
    every name each is printed under.

    Every advance lands in exactly one category.  The first {!n_busy}
    are the time a context spends doing something — computing, waiting
    on memory, waiting at a barrier or for a lock — which the trace
    records as slices and the profiler attributes to source frames.  The
    critical-path recorder sees all {!count}: the busy ones, and the
    advances the other two do not see. *)

type t = int
(** A dense index, [0 .. count - 1]. *)

val compute : t
val mem_private : t
val mem_shared : t
val mem_mpb : t
val barrier_wait : t
val lock_wait : t

val sched_wait : t
(** Waiting for a core: ready-queue delay plus the context-switch
    penalty on shared cores. *)

val sync : t
(** Synchronization protocol costs that are not waits on another
    context's progress: uncontended lock acquire/release, MPB flag
    set/read costs, join bookkeeping. *)

val idle : t
(** Before a spawned context starts, and after a context finishes until
    the wall — the padding that makes the accounting identity total. *)

val count : int
(** Every category: 9. *)

val n_busy : int
(** The busy categories are [0 .. n_busy - 1] ({!compute} to
    {!lock_wait}): 6. *)

val name : t -> string
(** The [--explain] name: ["compute"], ["mem-private"], ...,
    ["idle"]. *)

val slice_name : t -> string
(** The trace's slice name of a busy category: ["compute"],
    ["private-mem"], ["shared-dram"], ["mpb"], ["barrier"], ["lock"]. *)

val metric_name : t -> string
(** The profiler's counter of a category, its {!name} as
    ["sim_mem_private_ps_total"]. *)

(** Deterministic discrete-event simulation engine.

    Execution contexts are OCaml-5 effects coroutines; the scheduler
    always resumes the runnable context with the smallest local time, so
    shared resources (core pipelines, memory controllers, MPB ports,
    locks, the barrier) are arbitrated in global time order and every run
    is reproducible.  The timing model is documented at the top of the
    implementation.

    In an engine created with [~strict:false], a context alone on its
    core runs its core-local operations (compute, and its own core's
    private lines that hit in L1 or L2) ahead of that order, without a
    scheduling decision, and takes its turn before anything another
    context can observe.  Results, including {!events}, are the same as
    in global order.  A program run that way must keep the same
    contract: between operations, touch only state no other context can
    see, or call [take_turn] first. *)

type api = {
  self : int;    (** context id: the RCCE rank or Pthread index *)
  nunits : int;  (** number of spawned contexts *)
  core : int;
  compute : int -> unit;            (** burn [n] core cycles *)
  load : int -> bytes:int -> unit;  (** timed read of [bytes] at address *)
  store : int -> bytes:int -> unit;
  barrier : unit -> unit;
      (** all statically spawned contexts (the barrier group); dynamic
          [spawn_child] contexts do not participate *)
  acquire : int -> unit;            (** test-and-set register of core [i] *)
  release : int -> unit;
  now_ps : unit -> int;
  spawn_child : (api -> unit) -> int;
      (** create a context mid-run on the caller's core (pthread_create);
          returns its id.  Dynamic contexts do not join the barrier
          group. *)
  join : int -> unit;               (** wait for a context to finish *)
  barrier_n : id:int -> count:int -> unit;
      (** counted barrier over an explicit group size, keyed by id
          (pthread_barrier_t instances, sub-groups) *)
  flag_set : id:int -> bool -> unit;
      (** write an MPB-resident synchronization flag; a set wakes every
          waiter *)
  flag_wait : id:int -> unit;  (** block until the flag is set *)
  set_frequency : core:int -> mhz:int -> unit;
      (** change a tile's core frequency mid-run (DVFS, section 5.1);
          both cores of the tile change together.  100..1000 MHz. *)
  take_turn : unit -> unit;
      (** wait until every operation ordered before the caller's current
          point has been processed.  Call it before reading or writing
          state shared with other contexts that no engine operation
          guards (an allocation log, an output buffer, a table handing
          out ids in first-use order).  Free when the context has not
          run ahead. *)
}

exception Deadlock of string

exception Order_conflict of string
(** Raised by {!run} in a non-strict engine when a context changed what
    another context's already-processed core-local operations read: a
    frequency change on a tile whose other core ran past it, or an
    access to another core's private page whose owner ran past it.
    Nothing about the run is usable; run the program again in a strict
    engine. *)

type t

val create :
  ?cfg:Config.t -> ?strict:bool -> ?trace:Trace.t -> ?profile:Profile.t ->
  ?critpath:Critpath.t -> unit -> t
(** With [strict] (default [true]), every operation is processed in
    global time order and {!run} never raises {!Order_conflict}.
    [~strict:false] lets a context alone on its core run ahead (see
    above); then {!run} may raise {!Order_conflict}.  An engine with any
    recorder attached is strict, since recorders log in processing
    order.

    With [trace], every compute burst, memory access, barrier wait and
    lock wait is recorded as a timed interval.  With [profile], the same
    picoseconds are additionally attributed to each context's current
    source frame (see {!Profile}), lock and barrier contention is
    tabulated, and machine metrics (L1 hit rate, memory-controller queue
    depth, mesh utilization) are sampled on the profile's interval.

    With [critpath], {e every} local-clock advance — including scheduler
    waits, sync protocol costs and idle padding the trace never sees —
    is reported to the causal recorder with its dependency edge (lock
    holder, barrier last-arriver, flag setter, join target, spawn
    parent), so that after {!run} the accounting identity
    [sum == wall * contexts] holds exactly and {!Critpath.critical_path}
    / {!Critpath.whatifs} explain where the time went.  All three are
    optional and cost nothing when absent. *)

val cfg : t -> Config.t
val memmap : t -> Memmap.t
val mesh : t -> Mesh.t

val spawn : t -> core:int -> (api -> unit) -> int
(** Register a context on a core (several contexts may share a core — the
    Pthread baseline).  Returns the context id, assigned in spawn order.
    @raise Invalid_argument after {!run} or for an out-of-range core. *)

val run : t -> unit
(** Drive the simulation until every context finishes.  An exception
    escaping a context's program is re-raised here once every operation
    ordered before it has been processed.
    @raise Deadlock when parked contexts can never resume.
    @raise Order_conflict in a non-strict engine, see above. *)

val stats : t -> Stats.t

val trace : t -> Trace.t option

val profile : t -> Profile.t option

val critpath : t -> Critpath.t option

val elapsed_ps : t -> int
(** Completion time of the slowest context. *)

val elapsed_ms : t -> float

val events : t -> int
(** Number of operations processed so far: one per context start, per
    compute burst, per memory line and per synchronization step that
    parks or yields.  It counts operations, not scheduler resumes: an
    operation continued in place counts once, and waiting for the turn
    counts nothing, so the figure is the same in strict and run-ahead
    engines. *)

(** Simulated-time source profiler.

    The interpreter (or workload harness) pushes interned attribution
    frames — function names, plus an optional current source line — and
    the engine charges every compute burst, memory round trip, barrier
    wait and lock wait to the frame on top of the charged context's
    stack.  All times are simulated picoseconds, so profiles are exactly
    reproducible.

    Also collected: a per-mutex contention table, per-barrier arrival
    imbalance, and sampled machine-metric timelines (L1 hit rate, memory
    controller queue depth, mesh utilization) exportable as Chrome
    counter events; aggregate counters and wait histograms are exposed
    through an {!Obs.Registry} for the Prometheus-style text
    exposition.

    Every report but the samples is independent of the order in which
    the engine processes contexts, so a profiled run may run ahead.  A
    sample reads the whole machine at one point of processing, so the
    engine takes samples only when a trace is attached too, which keeps
    it strict. *)

type t

val create : ?sample_interval_ps:int -> unit -> t
(** [sample_interval_ps] (default 1_000_000 = 1 µs of simulated time)
    spaces the machine-metric timeline samples. *)

val reset : t -> unit
(** Back to the state {!create} left, with the same sample interval:
    every table, the samples and the {!registry}'s instruments (the
    registry itself stays the same value).  What a strict replay after
    [Engine.Order_conflict] starts from. *)

val sample_interval_ps : t -> int

(** {1 Attribution frames} (interpreter / workload side) *)

val intern : t -> string -> int
(** Intern a function name to a slot; idempotent.  Slot 0 is the
    implicit ["<toplevel>"] frame charged while a context's stack is
    empty. *)

val intern_line : t -> string -> int
(** Intern a ["file:line"] key for the line-heat report; idempotent. *)

val push : t -> ctx:int -> int -> unit
(** Enter a function frame (an interned slot) on a context's stack. *)

val pop : t -> ctx:int -> unit

val set_line : t -> ctx:int -> int -> unit
(** Set the context's current source line (an {!intern_line} slot). *)

val finalize : t -> unit
(** Pop every frame still open (end of run), completing inclusive
    times, and bring the attributed-ps-per-kind counters of the
    {!registry} up to the run's totals; a second call adds nothing. *)

(** {1 Charging} (engine side) *)

val charge : t -> ctx:int -> kind:Trace.kind -> int -> unit
(** Attribute picoseconds of [kind] to the context's current frame and
    line. *)

val lock_acquired : t -> lock:int -> wait_ps:int -> holder:int -> unit
(** One acquisition of an engine lock; [wait_ps] is 0 and [holder] is
    [-1] when uncontended, otherwise the context that held the lock. *)

val name_lock : t -> lock:int -> string -> unit
(** Attach a source name to an engine lock id.  The first name wins, so
    a context that runs ahead takes its turn before naming. *)

val barrier_episode : t -> key:int -> spread_ps:int -> unit
(** One completed barrier: [spread_ps] is the fastest-vs-slowest arrival
    gap; [key] is the counted-barrier id, or [-1] for the global RCCE
    barrier. *)

val sample : t -> ts:int -> name:string -> series:(string * float) list -> unit
(** Append one timeline sample (a named Chrome counter event).  The
    engine samples only when a trace is attached as well. *)

(** {1 Reports} *)

val attributed_ps : t -> ctx:int -> int
(** Total picoseconds attributed to one context (equals its traced busy
    time). *)

val total_attributed_ps : t -> int

val n_ctxs : t -> int

type fn_row = {
  fn_name : string;
  fn_calls : int;
  fn_flat_ps : int array;  (** per {!Trace.kind_index} *)
  fn_flat_total_ps : int;
  fn_incl_ps : int;        (** inclusive: self plus callees *)
}

val functions : t -> fn_row list
(** Sorted by flat total descending (name ascending on ties); rows with
    no attributed time are omitted. *)

val lines : t -> (string * int) list
(** ["file:line"] keys with attributed picoseconds, hottest first. *)

type lock_row = {
  lk_name : string;          (** source name, or ["lock#N"] *)
  lk_acquisitions : int;
  lk_contended : int;
  lk_wait_ps : int;
  lk_max_wait_ps : int;
  lk_max_holder : int;       (** context holding at the max wait; -1 none *)
}

val locks : t -> lock_row list
(** Locks with at least one acquisition, most total wait first. *)

type barrier_row = {
  br_name : string;          (** ["global"] or ["barrier#N"] *)
  br_episodes : int;
  br_total_spread_ps : int;
  br_max_spread_ps : int;
}

val barriers : t -> barrier_row list

val current_fn_slot : t -> ctx:int -> int
(** The interned slot of the frame on top of the context's stack
    (0 = ["<toplevel>"]).  Allocation-free; used by the critical-path
    recorder to stamp dependency-graph events. *)

val current_line_slot : t -> ctx:int -> int
(** The context's current line slot (0 = ["<unknown>"]). *)

val fn_name : t -> int -> string
(** Name for an interned function slot (["?"] when out of range). *)

val line_name : t -> int -> string
(** Key for an interned line slot (["?"] when out of range). *)

val registry : t -> Obs.Registry.t
(** Aggregate counters (attributed ps per kind, lock/barrier totals) and
    wait/spread histograms, for [Obs.Registry.to_prometheus] and
    friends.  The attributed-ps counters are filled by {!finalize}, which
    [Engine.run] calls at the end of a run, not by each charge. *)

val counter_events : t -> Obs.Chrome.event list
(** The sampled timelines as Chrome counter events (plus a process-name
    metadata event), mergeable into a trace file.  Only the metadata
    event when the run had no trace. *)

val render_functions : t -> string
val render_lines : ?limit:int -> t -> string
val render_locks : t -> string
val render_barriers : t -> string

val render : t -> string
(** All of the above as one human-readable report. *)

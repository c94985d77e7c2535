(** Causal observability over the DES: the event-dependency graph, a
    full picosecond accounting, the critical path, and what-if speedup
    ceilings.

    The engine reports every local-clock advance exactly once — compute
    bursts, memory stalls (split private / shared DRAM / MPB), barrier
    waits with last-arriver edges, mutex waits with holder edges,
    scheduler slice waits, sync protocol costs, and idle padding — so
    that after {!finalize} the accounting identity

    {v sum over contexts and categories == wall ps * contexts v}

    holds {e exactly}; any gap means a missed (or double-charged)
    advance.  The per-category accumulators are plain integer adds and
    stay exact even when the event buffer hits its cap (drops are
    counted, never silent, mirroring {!Trace}).

    The critical path is extracted backward from the last event of the
    last-finishing context: follow the causal edge when the event has
    one, program order otherwise.  What-ifs replay the recorded
    accounting under counterfactuals and report {e ceilings} — removing
    a wait can reorder lock queues or shift barrier arrival order,
    which the replay deliberately ignores. *)

type t

val create : ?limit:int -> unit -> t
(** [limit] caps the event-dependency buffer (default 1_000_000
    events, counted over all contexts); accounting stays exact past
    it.  A limit above 2{^42} raises [Invalid_argument].

    The cap keeps the events recorded first in processing order, which
    only a strict {!Engine} fixes: a run whose contexts run ahead raises
    [Engine.Order_conflict] when it dropped any event, so that the run
    is replayed strictly (see {!reset}). *)

val reset : t -> unit
(** Back to the state {!create} left, with the same limit: what a
    strict replay after [Engine.Order_conflict] starts from. *)

(** {1 Recording (engine side)} *)

val record :
  t ->
  ctx:int ->
  core:int ->
  cat:Category.t ->
  dur:int ->
  end_ps:int ->
  fn:int ->
  line:int ->
  pred:int ->
  unit
(** One local-clock advance of [dur] ps ending at [end_ps].  [fn] /
    [line] are {!Profile} intern slots (0 when unprofiled); [pred] is
    the handle, from {!last_event}, of the event this interval causally
    waited on ([-1], or a handle that names no stored event = program
    order only).  Zero-duration advances are ignored.  Raises
    [Invalid_argument] when a slot (below 2{^24}), the core (−1 to
    1022) or the context (below 2{^20}) of a stored event does not fit
    the packing. *)

val last_event : t -> ctx:int -> int
(** Handle of a context's latest stored event ([-1] if none): the
    context and the event's index in that context's lane, which engines
    pass as [pred] for cross-context edges. *)

val finalize :
  t -> wall_ps:int -> mpb_line_ps:int -> stats:Stats.ctx_stats array -> unit
(** Record idle tails up to [wall_ps] (making the identity hold) and
    remember, for the what-ifs, [mpb_line_ps], the nominal cost of one
    MPB line round trip, and the engine's per-context [stats], indexed
    by context: their [mesh_ps] feed the zero-mesh ceiling and their
    [shared_dram_lines] the MPB-speed one.  Idempotent. *)

(** {1 Accounting} *)

val events : t -> int
val dropped : t -> int
val n_ctxs : t -> int
val wall_ps : t -> int
val account : t -> ctx:int -> cat:Category.t -> int
val account_totals : t -> int array
(** Picoseconds per category, summed over contexts; length
    {!Category.count}. *)

val account_event_totals : t -> int array

val identity : t -> int * int
(** [(sum of every charged ps, wall_ps * contexts)] — equal after
    {!finalize}. *)

val identity_ok : t -> bool

(** {1 Critical path} *)

type step = {
  st_ctx : int;
  st_core : int;     (** -1 for idle padding *)
  st_cat : int;
  st_dur : int;
  st_end_ps : int;
  st_fn : int;
  st_line : int;
}

val critical_path : t -> step list
(** In execution order, ending at the last event of the last-finishing
    context.  Approximate when {!dropped} is non-zero (the walk bottoms
    out at the oldest recorded ancestor).  The path is walked once per
    recorded stream: later calls and the reports ({!render},
    {!render_path}, {!to_json}, {!flow_events}) share it until the
    next {!record}. *)

val path_span : step list -> int
val path_by_category : step list -> int array * int array

val path_contributors : step list -> (int * int * int * int * int) list
(** [(fn_slot, line_slot, category, ps, steps)], heaviest first, ties
    in [(fn_slot, line_slot, category)] order.  Raises
    [Invalid_argument] on a step whose slots do not fit {!record}'s
    packing. *)

(** {1 What-if speedup ceilings} *)

type whatif = {
  wi_name : string;
  wi_desc : string;
  wi_removed_ps : int;
  wi_new_wall_ps : int;
  wi_ceiling : float;  (** old wall / new wall *)
}

val whatifs : t -> whatif list
(** zero-mesh, zero-lock-wait, zero-barrier-wait, MPB-speed shared
    DRAM, zero-sched-wait. *)

(** {1 Sinks} *)

val flow_events : ?flow_id:int -> ?max_end_ps:int -> t -> Obs.Chrome.event list
(** The critical path as one Perfetto flow chain (ph "s"/"t"/"f")
    bound to the trace slices (pid = core, tid = ctx).  Steps without a
    trace slice (idle, sched) are skipped; [max_end_ps] clips the chain
    when the trace buffer truncated, so the chain is always well-formed
    — first event ["s"], last ["f"], no dangling ids. *)

val register_metrics : t -> Obs.Registry.t -> unit
(** Register [sim_account_ps_total{category="..."}] labelled counters
    holding the accounting totals. *)

val render : ?profile:Profile.t -> t -> string
(** Accounting table + identity line, critical-path summary with the
    heaviest {e function/line/category} contributors, and the what-if
    ceiling table. *)

val render_account : t -> string
val render_path : ?profile:Profile.t -> ?limit:int -> t -> string
val render_whatifs : t -> string

val to_json : ?profile:Profile.t -> t -> string
(** The full report as one JSON document (the [--explain-json]
    payload). *)

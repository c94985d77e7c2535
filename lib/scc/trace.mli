(** Execution tracing: timed intervals per context, exportable as Chrome
    tracing JSON (chrome://tracing, Perfetto).  Events live in a growable
    flat buffer; recording past [limit] counts drops instead of failing
    silently. *)

type event = {
  ctx : int;
  core : int;
  start_ps : int;
  end_ps : int;
  kind : Category.t;  (** a busy category *)
}

type t

val create : ?limit:int -> unit -> t
(** Recording stops after [limit] events (default 10^6); further events
    are counted in {!dropped}. *)

val record :
  t -> ctx:int -> core:int -> start_ps:int -> end_ps:int -> Category.t ->
  unit
(** Zero-length intervals are dropped (and not counted as drops). *)

val events : t -> event list
(** In recording order. *)

val iter : t -> (event -> unit) -> unit
(** In recording order, without materialising a list. *)

val length : t -> int

val dropped : t -> int
(** Events discarded because the buffer hit [limit]. *)

val busy_by_kind : t -> ctx:int -> (Category.t * int) list
(** Total busy picoseconds per category for one context, in category
    order (single buffer pass; categories with no time are omitted). *)

val max_end_ps : t -> int
(** Latest interval end over every recorded event (0 when empty). *)

val to_chrome_events : t -> Obs.Chrome.event list
(** The same intervals as [Obs.Chrome] events, for merging with compiler
    spans and profiler counter timelines in one trace file. *)

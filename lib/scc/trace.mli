(** Execution tracing: timed intervals per context, exportable as Chrome
    tracing JSON (chrome://tracing, Perfetto).  Events live in a growable
    flat buffer; recording past [limit] counts drops instead of failing
    silently. *)

type kind =
  | Compute
  | Mem_private
  | Mem_shared
  | Mem_mpb
  | Barrier_wait
  | Lock_wait

val n_kinds : int

val kind_index : kind -> int
(** A dense [0 .. n_kinds-1] index (used by the profiler's per-kind
    accumulators). *)

val kind_to_string : kind -> string

type event = {
  ctx : int;
  core : int;
  start_ps : int;
  end_ps : int;
  kind : kind;
}

type t

val create : ?limit:int -> unit -> t
(** Recording stops after [limit] events (default 10^6); further events
    are counted in {!dropped}. *)

val record :
  t -> ctx:int -> core:int -> start_ps:int -> end_ps:int -> kind -> unit
(** Zero-length intervals are dropped (and not counted as drops). *)

val events : t -> event list
(** In recording order. *)

val iter : t -> (event -> unit) -> unit
(** In recording order, without materialising a list. *)

val length : t -> int

val dropped : t -> int
(** Events discarded because the buffer hit [limit]. *)

val busy_by_kind : t -> ctx:int -> (kind * int) list
(** Total busy picoseconds per kind for one context (single buffer pass;
    kinds with no time are omitted). *)

val max_end_ps : t -> int
(** Latest interval end over every recorded event (0 when empty). *)

val to_chrome_events : t -> Obs.Chrome.event list
(** The same intervals as [Obs.Chrome] events, for merging with compiler
    spans and profiler counter timelines in one trace file. *)

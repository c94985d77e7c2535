(** Shared observability core: monotonic counters, fixed-bucket
    histograms, Chrome trace events and the compiler's wall-clock spans,
    with a Prometheus-style text exposition and a fixed-column table
    renderer.

    Nothing here reads a clock on its own: every timestamp is an integer
    handed in by its owner, so the same code serves both the
    deterministic simulator (where "time" is the DES clock) and the
    compiler (where it is [wall_clock_ns]). *)

val wall_clock_ns : unit -> int
(** Wall-clock time in integer nanoseconds (the unit of {!Spans}). *)

val json_escape : string -> string

(** {1 Counters} *)

module Counter : sig
  type t

  val name : t -> string
  val help : t -> string

  val labels : t -> (string * string) list
  (** Label pairs, sorted by key.  Empty for unlabelled counters. *)

  val label_string : t -> string
  (** Prometheus-style rendering of the label set, e.g.
      [{category="idle"}]; [""] when unlabelled. *)

  val value : t -> int
  val incr : t -> unit
  val add : t -> int -> unit
  (** Monotonic: [add] of a negative amount raises [Invalid_argument]. *)
end

(** {1 Fixed-bucket histograms} *)

module Histogram : sig
  type t

  val name : t -> string
  val bounds : t -> int array
  (** Upper bounds (inclusive), strictly increasing; an implicit +Inf
      bucket follows the last bound. *)

  val observe : t -> int -> unit
  val count : t -> int
  val sum : t -> int

  val bucket_counts : t -> int array
  (** Per-bucket (non-cumulative) counts; length [bounds + 1], the last
      entry being the +Inf overflow bucket. *)
end

(** {1 Registry} *)

module Registry : sig
  type t

  val create : unit -> t

  val clear : t -> unit
  (** Drop every instrument: the registry is as {!create} left it. *)

  val counter :
    t -> ?help:string -> ?labels:(string * string) list -> string -> Counter.t
  (** Idempotent per (name, label set): a second call with the same name
      and labels returns the first counter; distinct label sets under one
      name form a labelled metric family. *)

  val histogram : t -> ?help:string -> bounds:int array -> string -> Histogram.t

  val to_prometheus : t -> string
  (** Prometheus text exposition format (counters and histograms, with
      cumulative [le] buckets, [_sum] and [_count] series).  Labelled
      counters sharing a family name are grouped under a single
      [# HELP] / [# TYPE] header, one [name{k="v"} value] line each. *)
end

(** {1 Chrome trace events}

    The subset of the Chrome tracing JSON format Perfetto needs: complete
    ("X") duration events, counter ("C") events, and process/thread
    metadata ("M") events.  Timestamps are microseconds. *)

module Chrome : sig
  type flow_phase = Flow_start | Flow_step | Flow_end

  type event =
    | Flow of {
        name : string;
        cat : string;
        id : int;   (** all events of one flow chain share an id *)
        pid : int;
        tid : int;
        ts_us : float;
        phase : flow_phase;
      }  (** Flow arrows ("s"/"t"/"f" events): Perfetto draws an arrow
             chain through the slices enclosing each flow event — used
             for the critical path through the simulated run.  A
             well-formed chain starts with [Flow_start] and ends with
             [Flow_end]. *)
    | Complete of {
        name : string;
        cat : string;
        pid : int;
        tid : int;
        ts_us : float;
        dur_us : float;
        args : (string * string) list;
      }
    | Counter of {
        name : string;
        pid : int;
        ts_us : float;
        series : (string * float) list;
      }
    | Process_name of { pid : int; name : string }
    | Thread_name of { pid : int; tid : int; name : string }

  val to_json : event list -> string
  (** A complete JSON array document. *)

  val write_merge : string -> event list -> unit
  (** Write [events] to a file as a JSON array; when the file already
      holds a JSON array (for example the other half of a
      compile-then-simulate run), the new events are appended inside the
      existing array, so compiler and simulator tracks land in one
      Perfetto-loadable trace. *)
end

(** {1 Spans} *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_pid : int;
  sp_tid : int;
  sp_start : int;  (** wall-clock nanoseconds, relative to the epoch *)
  sp_dur : int;
  sp_args : (string * string) list;
}

module Spans : sig
  type t

  val create : ?epoch:int -> unit -> t
  (** [epoch] is subtracted from every recorded start, anchoring
      wall-clock spans to the start of the run instead of 1970. *)

  val record :
    t ->
    name:string ->
    ?cat:string ->
    ?args:(string * string) list ->
    pid:int ->
    tid:int ->
    start:int ->
    dur:int ->
    unit ->
    unit

  val spans : t -> span list
  (** In recording order. *)

  val length : t -> int

  val to_chrome : t -> Chrome.event list
end

(** {1 Table rendering} *)

val render_table : ?rule:bool -> string list list -> string
(** Left-aligned columns from a header row plus data rows: each cell
    padded to its column's width, two spaces apart, with no trailing
    spaces.  With [rule] (default [false]), a rule of dashes is drawn
    under the header. *)

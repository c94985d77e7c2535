(** Workload harness: one benchmark definition runs as the Pthread
    baseline (N threads on one core), as RCCE with off-chip shared memory
    (Figure 6.1), or as RCCE with on-chip MPB placement (Figure 6.2, with
    off-chip fallback for arrays that do not fit). *)

type placement = Off_chip | On_chip

type mode =
  | Pthread_baseline of int  (** threads, all on core 0 *)
  | Rcce of placement * int  (** placement, cores *)

val mode_to_string : mode -> string

type ctx = {
  eng : Scc.Engine.t;
  units : int;
  mode : mode;
  mutable notes : string list;
}

val note : ctx -> ('a, unit, string, unit) format4 -> 'a

val alloc : ctx -> name:string -> elts:int -> elt_bytes:int -> Sharr.t
(** Allocate a benchmark array under the mode's placement policy
    (private / off-chip shared / MPB-striped with off-chip fallback). *)

val mpb_scratch : ctx -> bytes:int -> int array option
(** Per-unit MPB scratch buffers (base address per core) for staging
    blocks of a too-large array through the on-chip memory; [None] when
    the mode has no MPB or a slice cannot hold [bytes]. *)

type instance = {
  body : Scc.Engine.api -> unit;  (** per thread / UE *)
  verify : unit -> bool;          (** checked after the run *)
}

type t = {
  name : string;
  instantiate : ctx -> instance;
}

type result = {
  workload : string;
  mode : mode;
  elapsed_ps : int;
  verified : bool;
  stats : Scc.Stats.t;
  round_trips : int;   (** {!Scc.Engine.round_trips} of the run *)
  notes : string list;
}

val elapsed_ms : result -> float

val run :
  ?cfg:Scc.Config.t -> ?trace:Scc.Trace.t -> ?profile:Scc.Profile.t ->
  ?critpath:Scc.Critpath.t -> t -> mode -> result
(** With [trace], the run records a timeline (see {!Scc.Trace}).  With
    [profile], every simulated picosecond is attributed to a root frame
    named after the workload, and contention/machine-metric timelines
    are collected (see {!Scc.Profile}). *)

val speedup : baseline:result -> result -> float
(** [baseline.elapsed / r.elapsed]. *)

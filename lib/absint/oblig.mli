open Cfront

(** Proof obligations and the analysis summary.  The engine renders
    intervals to strings, so sessions, reports and tests handle plain
    data. *)

type status =
  | Proved
  | Unproved of string  (** reason the interval did not discharge it *)
  | Out_of_bounds       (** every concrete index is outside the block *)

type kind = Index | Deref

type t = {
  o_func : string;          (** function containing the access *)
  o_loc : Srcloc.t;
  o_path : string;          (** rendered access expression *)
  o_kind : kind;
  o_blocks : string list;   (** storage blocks the base may address *)
  o_alloc : string option;  (** allocator when a block is heap-backed,
                                e.g. ["RCCE_shmalloc"] *)
  o_index : string;         (** inferred index interval *)
  o_bound : int option;     (** smallest element count over the blocks *)
  o_status : status;
}

type mode = Pthread | Rcce

type spawn_fact = {
  sp_func : string;      (** spawned thread function *)
  sp_loc : Srcloc.t;     (** create site *)
  sp_interval : string;  (** inferred range of the thread-id argument *)
}

type extent = Main_only | Single_thread of string | Mixed

type gfact = {
  gf_name : string;
  gf_extent : extent;
  gf_single_instance : bool;  (** the extent interval is a singleton *)
  gf_addr_taken : bool;
}

type summary = {
  s_mode : mode;
  s_obligations : t list;    (** sorted by location *)
  s_spawns : spawn_fact list;
  s_gfacts : gfact list;
  s_rounds : int;            (** interference iterations to the fixpoint *)
  s_functions : string list; (** functions reached by the analysis *)
}

val mode_to_string : mode -> string
(** ["pthread"] or ["rcce"]. *)

val kind_to_string : kind -> string
val status_to_string : status -> string
(** ["proved"], ["unproved"] or ["out-of-bounds"]. *)

val is_proved : t -> bool
val all_proved : summary -> bool

val unproved : summary -> t list
(** Obligations that are not [Proved], in location order. *)

val compare_site : t -> t -> int
(** Order by line, column, function, path. *)

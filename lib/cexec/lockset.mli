(** Eraser-style lockset race detection (Savage et al., 1997 — one of the
    dynamic approaches the paper's related-work chapter surveys).

    Locations move Virgin → Exclusive → Shared / Shared-modified; from the
    second thread on, the candidate lockset is intersected with the locks
    the accessing context holds, and an empty candidate set on a modified
    shared location is a data race.  Each location reports once. *)

module Int_set : Set.S with type elt = int

type t

type report = {
  addr : int;
  location : string;  (** variable or region name, when known *)
  loc : Cfront.Srcloc.t option;
      (** declaration site of the containing region, when known *)
  by_ctx : int;
  write : bool;
}

val create : unit -> t

val name_region :
  t -> ?loc:Cfront.Srcloc.t -> base:int -> bytes:int -> string -> unit
(** Associate an address range with a variable name (and, when known,
    its declaration site) for reporting. *)

val access : t -> ctx:int -> held:Int_set.t -> write:bool -> int -> unit
(** One access by context [ctx] holding lock set [held]. *)

val synchronize : t -> unit
(** A global synchronization point (barrier, join): restart the state
    machine for every location — a pragmatic happens-before
    approximation, precise for whole-world barriers and join-all
    patterns. *)

val reports : t -> report list
(** In detection order. *)

val report_to_string : report -> string

val report_to_diag : report -> Diag.t
(** Render through the unified diagnostics engine (code
    ["race-dynamic"]), so dynamic and static reports print alike. *)

(** RCCE message passing on the simulator, for OCaml programs.

    Units of execution (UEs) tied one-to-one to cores, one-sided put/get
    through the MPB, and blocking two-sided send/recv.  A translated C
    program's collective allocation, barrier, locks and frequency divider
    are the interpreter's RCCE builtins ([Cexec.Interp]); an OCaml
    program reaches the engine's barrier, locks and DVFS through {!api}. *)

type t
(** A per-UE handle. *)

val ue : t -> int
val num_ues : t -> int

val api : t -> Scc.Engine.api
(** The engine operations of the UE's context. *)

val put : t -> dest_ue:int -> offset:int -> bytes:int -> unit
(** [RCCE_put]: write into the MPB slice of the target UE.
    @raise Invalid_argument when there is no such UE. *)

val get : t -> src_ue:int -> offset:int -> bytes:int -> unit
(** [RCCE_get]: read from the MPB slice of the source UE.
    @raise Invalid_argument when there is no such UE. *)

val send : t -> dest_ue:int -> bytes:int -> unit
(** Blocking two-sided send: waits for the receiver's "ready" flag, moves
    the message into its MPB buffer (chunked), raises "sent".
    @raise Invalid_argument on send-to-self. *)

val recv : t -> src_ue:int -> bytes:int -> unit
(** Blocking receive matching {!send}. *)

val run :
  ?cfg:Scc.Config.t -> ncores:int -> (t -> unit) -> Scc.Engine.t
(** Spawn one UE per core (UE k on core k), run to completion, return the
    engine for inspection. *)

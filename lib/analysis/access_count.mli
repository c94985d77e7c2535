(** Dynamic access estimation for Stage 4 partitioning.

    Static occurrence counts scaled by the trip counts of enclosing loops
    (known bounds exactly, unknown loops get {!default_trip}) and by how
    many times the enclosing function is launched as a thread. *)

type t

val default_trip : int
(** Multiplier assumed for loops with unknown bounds. *)

val run : Ir.Symtab.t -> Thread_analysis.site list -> t
(** [run symtab sites] reads the symbol table's program and name
    resolution, and of [sites] (the program's [pthread_create] calls,
    {!Thread_analysis.sites}) each thread function and its launch
    multiplicity.  It reads nothing Stages 1–3 compute or refine. *)

val reads : t -> Ir.Var_id.t -> int
val writes : t -> Ir.Var_id.t -> int

val total : t -> Ir.Var_id.t -> int
(** Estimated reads + writes. *)

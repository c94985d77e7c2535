open Cfront

(** The locality plan: which shared allocations the optimizer may touch.

    Built on the translated (RCCE) generation.  Classifies every cast
    RCCE_shmalloc / RCCE_malloc of [sizeof(T) * n] assigned to a global
    pointer at the top of the entry function: escaped pointers are
    untouchable; data whose
    writes all land before the {e insertion point} (the first top-level
    entry statement calling a defined function) is read-only for the
    whole parallel phase; hot read-only arrays of scalar elements that
    fit an MPB slice become software-cache candidates, ranked by the
    access-count estimates and capacity-checked against
    {!Scc.Memmap.alloc_mpb_striped} by replaying the program's
    collective allocation order. *)

type shared_alloc = {
  sa_name : string;
  sa_elt : Ctype.t;
  sa_count : int;
  sa_alloc_fn : string;
  sa_index : int;  (** top-level statement index in the entry function *)
}

type mpb_candidate = {
  mc_name : string;
  mc_elt : Ctype.t;
  mc_count : int;
  mc_bytes : int;
  mc_reads : int;
  mc_owner : int;  (** MPB slice core: collective-call order mod ncores *)
}

type t = {
  entry : string;
  insert_at : int option;
  allocs : shared_alloc list;
  escaped : string list;
  read_only : string list;
  mpb : mpb_candidate list;
  rejected : (string * string) list;
}

val build :
  ncores:int -> access:Analysis.Access_count.t -> Ast.program -> t

val summary : t -> string
(** One-line rendering, for notes and tests. *)

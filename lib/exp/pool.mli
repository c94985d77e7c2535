(** A fixed-order domain pool: run independent thunks on OCaml 5 domains
    and gather their results in input order, so output built from the
    results is byte-identical to a sequential run. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val map_fixed : jobs:int -> (unit -> 'a) list -> 'a list
(** Run the thunks on [jobs] domains (clamped to [1 .. length]): the
    calling domain works alongside [jobs - 1] spawned ones.  Results
    are returned in input order.  [jobs = 1] runs sequentially in the
    calling domain without spawning.  If any thunk raises, the exception
    of the earliest failing index is re-raised after all domains have
    been joined. *)

(** Count Primes (the paper's Algorithm 11): trial division over a
    contiguous range per thread.  Contiguous partitioning leaves the
    highest unit ~2x the average work — the paper's 16x-not-32x result. *)

type params = { limit : int }

val default : params
(** Primes below 20000. *)

val reference : int -> int
(** Sequential prime count below the limit. *)

val make : ?params:params -> unit -> Workload.t

(** The paper's benchmark suite. *)

val pi : Workload.t
val primes : Workload.t
val sum35 : Workload.t
val dot : Workload.t
val lu : Workload.t
val stream : Workload.t
val histogram : Workload.t

val all : Workload.t list
(** The paper's six, in its figure order. *)

val find : string -> Workload.t option
val names : string list

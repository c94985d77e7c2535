(** Histogram: a synchronization-dependent application probing the paper's
    remark that mutex-to-test-and-set conversion makes performance vary —
    shared bin counters incremented under per-bin locks. *)

type params = { n : int; bins : int; locks : int }

val default : params

val reference : params -> int array
(** Sequential bin counts. *)

val make : ?params:params -> unit -> Workload.t

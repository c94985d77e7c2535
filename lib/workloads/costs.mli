(** Per-operation cycle costs on a P54C-class in-order core, following
    the published Pentium instruction timings. *)

val int_mod : int
val fp_add : int
val fp_div : int
val branch : int
val loop_overhead : int

val pi_step : int
(** One Pi-approximation step (adds, muls, one divide, loop overhead). *)

val primes_trial : int
(** One trial division (modulo, compare, branch). *)

val sum35_test : int
(** One 3-5-Sum candidate test (two modulos, or, add). *)

val stream_copy_elt : int
val stream_scale_elt : int
val stream_add_elt : int
val stream_triad_elt : int

val dot_elt : int
(** Multiply-accumulate per element. *)

val lu_update_elt : int
(** One inner elimination update. *)

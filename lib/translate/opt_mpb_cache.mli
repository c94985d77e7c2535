open Cfront

(** MPB software caching: place hot read-only shared data (per the
    session's locality plan) into MPB slices with a collective
    allocation, a core-0 fill loop and a publishing barrier, then
    redirect parallel-phase reads to the on-die copy. *)

val transform : Pass.ctx -> Ast.program -> Ast.program

val pass : Pass.t
(** Name ["opt-mpb-cache"]; must follow shared-rewrite and add-rcce. *)

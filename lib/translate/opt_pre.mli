open Cfront

(** Partial redundancy elimination of shared loads: hoist loop-stable
    dereferences of non-escaping shared pointers into private (hence
    cacheable) temporaries, legal via the plan's read-only-after-prologue
    classification or via no-concurrent-writer race facts plus loop
    sync-freedom. *)

val transform : Pass.ctx -> Ast.program -> Ast.program

val pass : Pass.t
(** Name ["opt-pre"]; must follow shared-rewrite, add-rcce and
    opt-mpb-cache (the cache pass rewrites subscripted reads, this one
    plain dereferences — running PRE second keeps the two disjoint). *)

(** Stage 5 finalization (the paper's Algorithms 9–10): replace the
    pthread include with ["RCCE.h"], rename [main] to [RCCE_APP], insert
    [RCCE_init(&argc, &argv)] first and [RCCE_finalize()] before the final
    return. *)

val pass : Pass.t

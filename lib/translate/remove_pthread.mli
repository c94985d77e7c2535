(** Stage 5 cleanup (the paper's Algorithms 6–8): [pthread_self] becomes
    [RCCE_ue], declarations of pthread data types are removed, and every
    remaining [pthread_*] call statement is dropped.  Must run after
    {!Thread_to_process} (which gives joins their barrier semantics) and
    after {!Mutex_convert} (which rewrites lock/unlock before they would be
    dropped here). *)

val pass : Pass.t

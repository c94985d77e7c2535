(** Feed proven thread-locality facts back into the sharing lattice.

    A global the scope analysis marked [Shared] is demoted to [Private]
    when the abstract interpretation proves exactly one thread ever
    touches it: every access lies in a single spawned-only thread
    function, that function has one dynamic instance (or the accesses
    are guarded to a singleton thread id), and the global's address is
    never taken. *)

val apply :
  scope:Analysis.Scope_analysis.t ->
  threads:Analysis.Thread_analysis.t ->
  Oblig.summary ->
  string list
(** Apply the demotions to the scope table through
    {!Analysis.Sharing.refine} (the flip-once law is respected via
    [can_refine]); returns the names actually refined. *)

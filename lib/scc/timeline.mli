(** The Perfetto timeline of a recorded run. *)

val events :
  ?profile:Profile.t -> ?critpath:Critpath.t -> Trace.t ->
  Obs.Chrome.event list
(** The trace's intervals, then the profiler's counter series, then the
    critical path's flow arrows.  When the trace dropped events past its
    buffer, the flow chain is clipped at the retained horizon so no arrow
    points at a dropped slice. *)

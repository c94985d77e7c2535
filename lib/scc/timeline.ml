(* The Perfetto timeline of a recorded run: trace intervals, profiler
   counters and critical-path flow arrows, in that order. *)

let events ?profile ?critpath tr =
  Trace.to_chrome_events tr
  @ (match profile with None -> [] | Some p -> Profile.counter_events p)
  @
  match critpath with
  | None -> []
  | Some cp ->
      (* clip the flow chain at the trace horizon so no arrow points at
         a dropped slice *)
      let max_end_ps =
        if Trace.dropped tr > 0 then Some (Trace.max_end_ps tr) else None
      in
      Critpath.flow_events ?max_end_ps cp

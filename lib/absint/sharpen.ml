(* Feed proven thread-locality facts back into the sharing lattice.

   A global the scope analysis marked [Shared] can be demoted to
   [Private] when the abstract interpretation proves that exactly one
   thread ever touches it:

   - every access happens inside a single thread function [f] that is
     never called directly (only spawned), and
   - either [f] has exactly one dynamic instance, or the joined
     thread-id interval over all access sites is a singleton (the
     accesses are guarded so that one specific thread performs them),
   - and the variable's address is never taken (an escaping address
     could smuggle the storage into another thread).

   The demotion goes through {!Analysis.Sharing.refine}, so the
   lattice's flip-once law still holds; [can_refine] is consulted first
   and anything already flipped is left alone. *)

module Thread_analysis = Analysis.Thread_analysis
module Scope_analysis = Analysis.Scope_analysis
module Sharing = Analysis.Sharing

(* Number of dynamic instances of thread function [f], when statically
   known: sites outside loops count 1, create-loops with a known trip
   count their trip.  [None] when any site's multiplicity is unknown. *)
let instances_of (threads : Thread_analysis.t) f =
  let sites =
    List.filter (fun (s : Thread_analysis.site) -> s.thread_func = f)
      threads.sites
  in
  List.fold_left
    (fun acc (s : Thread_analysis.site) ->
      match acc with
      | None -> None
      | Some n ->
          if not s.in_loop then Some (n + 1)
          else
            (match s.loop_trip with
            | Some t -> Some (n + t)
            | None -> None))
    (Some 0) sites

(* Globals whose extent facts justify a [Shared] -> [Private] demotion,
   in summary order. *)
let refineable ~(threads : Thread_analysis.t) (s : Oblig.summary) =
  List.filter_map
    (fun (g : Oblig.gfact) ->
      match g.Oblig.gf_extent with
      | Oblig.Single_thread f
        when (not g.Oblig.gf_addr_taken)
             && (instances_of threads f = Some 1
                || g.Oblig.gf_single_instance) ->
          Some g.Oblig.gf_name
      | _ -> None)
    s.Oblig.s_gfacts

(* Apply the demotions to the scope table; returns the names actually
   refined (already-private or flip-exhausted records are skipped). *)
let apply ~(scope : Scope_analysis.t) ~(threads : Thread_analysis.t)
    (s : Oblig.summary) =
  List.filter
    (fun name ->
      let id = Ir.Var_id.global name in
      match Scope_analysis.find scope id with
      | None -> false
      | Some (info : Analysis.Varinfo.t) ->
          Sharing.status info.sharing = Sharing.Shared
          && Sharing.can_refine info.sharing Sharing.Private
          && begin
               Sharing.refine info.sharing Sharing.Private;
               true
             end)
    (refineable ~threads s)

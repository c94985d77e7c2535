open Cfront

(* Dynamic access estimation for Stage 4.

   The paper's partitioner needs "the number of accesses to program
   variables in both serial and multi-threaded applications": static
   occurrence counts scaled by
   - the trip counts of enclosing loops (statically-known bounds are used
     exactly; unknown loops get [default_trip]), and
   - a thread multiplier: accesses inside a function launched as a thread
     k times count k-fold. *)

type estimate = { mutable est_reads : int; mutable est_writes : int }

type t = {
  estimates : estimate Ir.Var_id.Map.t;
  thread_count : int;
}

let default_trip = 10

let find t id = Ir.Var_id.Map.find_opt id t.estimates

let reads t id = match find t id with Some e -> e.est_reads | None -> 0
let writes t id = match find t id with Some e -> e.est_writes | None -> 0
let total t id = reads t id + writes t id

let get_or_create map id =
  match Ir.Var_id.Map.find_opt id !map with
  | Some e -> e
  | None ->
      let e = { est_reads = 0; est_writes = 0 } in
      map := Ir.Var_id.Map.add id e !map;
      e

(* A loop body runs its known trip count, or [default_trip] times. *)
let trips s =
  match Thread_analysis.loop_bounds s with
  | Some (_, n) when n > 0 -> n
  | Some _ | None -> default_trip

let run (scope : Scope_analysis.t) (threads : Thread_analysis.t) =
  let symtab = scope.Scope_analysis.symtab in
  let program = Ir.Symtab.program symtab in
  let map = ref Ir.Var_id.Map.empty in
  let f weight kind id =
    let e = get_or_create map id in
    match kind with
    | Access.Read -> e.est_reads <- e.est_reads + weight
    | Access.Write -> e.est_writes <- e.est_writes + weight
  in
  let thread_count =
    match Thread_analysis.static_thread_count threads with
    | Some n when n > 0 -> n
    | Some _ | None -> default_trip
  in
  List.iter
    (fun (fn : Ast.func) ->
      let resolve name =
        Ir.Symtab.resolve_id symtab ~func:fn.Ast.f_name name
      in
      let launches =
        if Thread_analysis.is_thread_func threads fn.Ast.f_name then
          let own =
            List.filter
              (fun (s : Thread_analysis.site) ->
                String.equal s.Thread_analysis.thread_func fn.Ast.f_name)
              threads.Thread_analysis.sites
          in
          List.fold_left
            (fun acc (s : Thread_analysis.site) ->
              acc
              + match s.Thread_analysis.in_loop, s.Thread_analysis.loop_trip
                with
                | false, _ -> 1
                | true, Some n when n > 0 -> n
                | true, (Some _ | None) -> default_trip)
            0 own
        else 1
      in
      List.iter
        (Access.visit_stmt resolve ~trips f ~weight:(max 1 launches))
        fn.Ast.f_body)
    (Ast.functions program);
  { estimates = !map; thread_count }

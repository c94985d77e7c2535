open Cfront

(* Dynamic access estimation for Stage 4.

   The paper's partitioner needs "the number of accesses to program
   variables in both serial and multi-threaded applications": static
   occurrence counts scaled by
   - the trip counts of enclosing loops (statically-known bounds are used
     exactly; unknown loops get [default_trip]), and
   - a thread multiplier: accesses inside a function launched as a thread
     k times count k-fold.

   The estimates read the program, its name resolution and the
   pthread_create sites, nothing the sharing stages refine, so they are
   the same before and after Stages 1-3 run. *)

type estimate = { mutable est_reads : int; mutable est_writes : int }

type t = estimate Ir.Var_id.Map.t

let default_trip = 10

let find t id = Ir.Var_id.Map.find_opt id t

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

(* How many threads run [func]: the sum of its sites' multiplicities
   (each at least 1), or 1 for a function no site launches. *)
let launches (sites : Thread_analysis.site list) func =
  match
    List.filter
      (fun (s : Thread_analysis.site) ->
        String.equal s.Thread_analysis.thread_func func)
      sites
  with
  | [] -> 1
  | own ->
      List.fold_left
        (fun acc (s : Thread_analysis.site) ->
          acc
          + match s.Thread_analysis.in_loop, s.Thread_analysis.loop_trip with
            | false, _ -> 1
            | true, Some n when n > 0 -> n
            | true, (Some _ | None) -> default_trip)
        0 own

let run symtab sites =
  let map = ref Ir.Var_id.Map.empty in
  let f weight kind id =
    let e = get_or_create map id in
    match kind with
    | Access.Read -> e.est_reads <- e.est_reads + weight
    | Access.Write -> e.est_writes <- e.est_writes + weight
  in
  List.iter
    (fun (fn : Ast.func) ->
      let resolve name =
        Ir.Symtab.resolve_id symtab ~func:fn.Ast.f_name name
      in
      List.iter
        (Access.visit_stmt resolve ~trips f
           ~weight:(launches sites fn.Ast.f_name))
        fn.Ast.f_body)
    (Ast.functions (Ir.Symtab.program symtab));
  !map

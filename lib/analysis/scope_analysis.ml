open Cfront

(* Stage 1: variable scope analysis.

   Extracts the paper's Table 4.1 basics for every variable — type, element
   count, static read/write occurrence counts, and the functions using
   (reading) or defining (writing) it — and assigns the initial sharing
   status: globals are Shared, everything else Unknown ("null").  The
   read/write classification lives in {!Access}; EXPERIMENTS.md discusses
   the two Table 4.1 cells where the thesis's own counts are internally
   inconsistent. *)

type t = {
  symtab : Ir.Symtab.t;
  table : Varinfo.t Ir.Var_id.Map.t;
  all_vars : Ir.Var_id.t list;     (* declaration order *)
  global_vars : Ir.Var_id.t list;
  local_vars : Ir.Var_id.t list;   (* locals and parameters *)
}

let find t id = Ir.Var_id.Map.find_opt id t.table

let get t id =
  match find t id with
  | Some info -> info
  | None ->
      invalid_arg
        (Printf.sprintf "Scope_analysis.get: unknown variable %s"
           (Ir.Var_id.to_string id))

let infos t = List.map (fun id -> get t id) t.all_vars

let sink table ~in_func kind id =
  match Ir.Var_id.Map.find_opt id table with
  | None -> ()
  | Some info -> begin
      match kind with
      | Access.Read -> Varinfo.record_read info ~in_func
      | Access.Write -> Varinfo.record_write info ~in_func
    end

let run symtab =
  let entries = Ir.Symtab.all symtab in
  let table =
    List.fold_left
      (fun acc (e : Ir.Symtab.entry) ->
        Ir.Var_id.Map.add e.Ir.Symtab.id (Varinfo.create e) acc)
      Ir.Var_id.Map.empty entries
  in
  let program = Ir.Symtab.program symtab in
  (* global initializers count as writes at global scope *)
  let gresolve name = Ir.Symtab.resolve_id symtab name in
  List.iter
    (Access.visit_decl gresolve (sink table ~in_func:None))
    (Ast.global_decls program);
  List.iter
    (fun (fn : Ast.func) ->
      let resolve name =
        Ir.Symtab.resolve_id symtab ~func:fn.Ast.f_name name
      in
      let f = sink table ~in_func:(Some fn.Ast.f_name) in
      List.iter
        (Access.visit_stmt resolve ~trips:(fun _ -> 1) (fun _ -> f) ~weight:1)
        fn.Ast.f_body)
    (Ast.functions program);
  (* initial sharing: globals Shared, the rest stays Unknown *)
  Ir.Var_id.Map.iter
    (fun id (info : Varinfo.t) ->
      if Ir.Var_id.is_global id then
        Sharing.refine info.Varinfo.sharing Sharing.Shared)
    table;
  let ids_of sel =
    List.filter_map
      (fun (e : Ir.Symtab.entry) ->
        if sel e.Ir.Symtab.id then Some e.Ir.Symtab.id else None)
      entries
  in
  {
    symtab;
    table;
    all_vars = List.map (fun (e : Ir.Symtab.entry) -> e.Ir.Symtab.id) entries;
    global_vars = ids_of Ir.Var_id.is_global;
    local_vars = ids_of (fun id -> not (Ir.Var_id.is_global id));
  }

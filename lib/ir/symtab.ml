open Cfront

(* Symbol tables for a parsed program: the set of all declared variables,
   their types and declaration sites, and name resolution within a function
   (locals and parameters shadow globals).  One binding per name per
   function is exact once {!Scope.uniquify} has named locals apart. *)

type entry = {
  id : Var_id.t;
  ty : Ctype.t;
  decl_loc : Srcloc.t;
  initialized : bool;   (* has an initializer at its declaration *)
}

type t = {
  program : Ast.program;
  entries : entry Var_id.Map.t;
  order : entry list;   (* declaration order: globals, then per function *)
}

let add_entry map entry =
  if Var_id.Map.mem entry.id map then
    Srcloc.error entry.decl_loc "duplicate declaration of %s"
      (Var_id.to_string entry.id)
  else Var_id.Map.add entry.id entry map

let entry_of_decl id (d : Ast.decl) =
  { id; ty = d.Ast.d_type; decl_loc = d.Ast.d_loc;
    initialized = d.Ast.d_init <> None }

let build (program : Ast.program) =
  let entries = ref Var_id.Map.empty in
  let order = ref [] in
  let push e =
    entries := add_entry !entries e;
    order := e :: !order
  in
  List.iter
    (fun (d : Ast.decl) -> push (entry_of_decl (Var_id.global d.Ast.d_name) d))
    (Ast.global_decls program);
  List.iter
    (fun (fn : Ast.func) ->
      let func = fn.Ast.f_name in
      List.iter
        (fun (name, ty) ->
          push { id = Var_id.param ~func name; ty; decl_loc = fn.Ast.f_loc;
                 initialized = true })
        fn.Ast.f_params;
      List.iter
        (fun (d : Ast.decl) ->
          push (entry_of_decl (Var_id.local ~func d.Ast.d_name) d))
        (Scope.decls fn))
    (Ast.functions program);
  { program; entries = !entries; order = List.rev !order }

let program t = t.program

let all t = t.order

let find t id = Var_id.Map.find_opt id t.entries

let type_of t id = Option.map (fun e -> e.ty) (find t id)

(* Resolve [name] as seen from inside [func] (or at global scope when
   [func] is [None]): innermost declaration wins. *)
let resolve t ?func name =
  let in_scope scope =
    Var_id.Map.find_opt { Var_id.name; scope } t.entries
  in
  let scoped =
    match func with
    | None -> None
    | Some f -> begin
        match in_scope (Var_id.Local f) with
        | Some e -> Some e
        | None -> in_scope (Var_id.Param f)
      end
  in
  match scoped with
  | Some e -> Some e
  | None -> in_scope Var_id.Global

let resolve_id t ?func name =
  Option.map (fun e -> e.id) (resolve t ?func name)

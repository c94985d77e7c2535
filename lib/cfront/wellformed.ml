(* Structural AST well-formedness: the in-memory replacement for the old
   print-then-reparse IR consistency hack.  A program is well-formed when
   every identifier is scope-closed (bound, by {!Scope}'s walk, to a
   parameter or local in scope, a global, a function, or a known ambient
   symbol), its functions' names are kept apart, and, after a removal
   pass, no node of a forbidden family (e.g. [pthread]) survives
   anywhere — declarations, types, calls or variables. *)

(* Symbols that the C subset treats as defined by the environment:
   [NULL] from the headers, and the RCCE runtime's exported globals. *)
let ambient = [ "NULL"; "RCCE_FLAG_UNSET"; "RCCE_COMM_WORLD" ]

let rec forbidden forbid name =
  match forbid with
  | [] -> false
  | prefix :: rest -> String.starts_with ~prefix name || forbidden rest name

(* The first [Named] library type inside a type that [forbid] names. *)
let rec forbidden_type forbid = function
  | Ctype.Named n -> if forbidden forbid n then Some n else None
  | Ctype.Ptr t | Ctype.Array (t, _) | Ctype.Unsigned t ->
      forbidden_type forbid t
  | Ctype.Func (ret, args) ->
      List.find_map (forbidden_type forbid) (ret :: args)
  | Ctype.Void | Ctype.Char | Ctype.Short | Ctype.Int | Ctype.Long
  | Ctype.Float | Ctype.Double -> None

let failf = Srcloc.error

(* [what] names the construct, and is only built for the message. *)
let check_type ~forbid loc what ty =
  match forbidden_type forbid ty with
  | Some n -> failf loc "%s has forbidden type '%s'" (what ()) n
  | None -> ()

let check_decl ~forbid (d : Ast.decl) =
  if forbidden forbid d.Ast.d_name then
    failf d.Ast.d_loc "forbidden declaration '%s' survives" d.Ast.d_name;
  check_type ~forbid d.Ast.d_loc
    (fun () -> Printf.sprintf "declaration '%s'" d.Ast.d_name)
    d.Ast.d_type

let check_global ~forbid = function
  | Ast.Gvar d -> check_decl ~forbid d
  | Ast.Gfunc fn ->
      let name = fn.Ast.f_name in
      if forbidden forbid name then
        failf fn.Ast.f_loc "forbidden function '%s' survives" name;
      check_type ~forbid fn.Ast.f_loc
        (fun () -> Printf.sprintf "return of '%s'" name)
        fn.Ast.f_ret;
      List.iter
        (fun (p, ty) ->
          check_type ~forbid fn.Ast.f_loc
            (fun () -> Printf.sprintf "parameter '%s' of '%s'" p name)
            ty)
        fn.Ast.f_params
  | Ast.Gproto (name, ty, loc) ->
      if forbidden forbid name then
        failf loc "forbidden prototype '%s' survives" name;
      check_type ~forbid loc
        (fun () -> Printf.sprintf "prototype '%s'" name)
        ty

let check ?(forbid = []) (program : Ast.program) =
  (* includes are verbatim pass-through text, not AST nodes; the forbid
     check covers declarations, types, calls and variables *)
  let use loc name bound =
    if forbidden forbid name then
      failf loc "forbidden identifier '%s' survives" name
    else if not (bound || List.mem name ambient) then
      failf loc "identifier '%s' is not declared in this scope" name
  in
  let node loc e =
    match e with
    | Ast.Cast (ty, _) -> check_type ~forbid loc (fun () -> "cast") ty
    | Ast.Sizeof_type ty ->
        check_type ~forbid loc (fun () -> "sizeof operand") ty
    | Ast.Call (callee, _) ->
        if forbidden forbid callee then
          failf loc "forbidden call '%s' survives" callee
    | _ -> ()
  in
  match
    List.iter (check_global ~forbid) program.Ast.p_globals;
    Scope.walk ~decl:(check_decl ~forbid) ~use ~node program
  with
  | () -> Ok ()
  | exception Srcloc.Error (loc, msg) ->
      Error (Printf.sprintf "%s: %s" (Srcloc.to_string loc) msg)

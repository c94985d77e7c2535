open Cfront

(* Pre-execution identifier resolution (see resolve.mli).

   Names are bound once, here, after [Scope.uniquify] has named every
   local apart: within a function each name then has at most one
   binder, and every use of it is in that binder's scope, so a
   per-function table from name to frame slot binds as C's block
   scoping does.  Every parameter and every declaration gets a slot of
   its own.  A use binds to the local of its name, else to the global of
   that name, else to nothing ([Unbound]).  In a call, a local's slot is
   filled when its declaration executes, which is always before any use
   in its scope, so the interpreter looks up no name at run time. *)

type slot =
  | Local of int
  | Global of int
  | Unbound

type rexpr =
  | Rlit of Value.t
  | Rstr of string
  | Rvar of slot * string
  | Runary of Ast.unop * rexpr
  | Rbinary of Ast.binop * rexpr * rexpr
  | Rassign of Ast.binop option * rexpr * rexpr
  | Rcond of rexpr * rexpr * rexpr
  | Rcall_user of int * rexpr list
  | Rcall_builtin of string * rexpr list * Ast.expr list
  | Rindex of rexpr * rexpr
  | Rcast of Ctype.t * rexpr
  | Rcomma of rexpr * rexpr

type rdecl = {
  rd_slot : int;
  rd_name : string;
  rd_type : Ctype.t;
  rd_loc : Srcloc.t;
  rd_init : rinit option;
}

and rinit = Rinit_expr of rexpr | Rinit_list of rexpr list

type rstmt =
  | Rsexpr of rexpr
  | Rsdecl of rdecl list
  | Rsblock of rstmt list
  | Rsif of rexpr * rstmt * rstmt option
  | Rswhile of rexpr * rstmt
  | Rsdo of rstmt * rexpr
  | Rsfor of rfor_init * rexpr option * rexpr option * rstmt
  | Rsreturn of rexpr option
  | Rsbreak
  | Rscontinue
  | Rsnull
  | Rsat of int * rstmt

and rfor_init = Rfor_none | Rfor_expr of rexpr | Rfor_decl of rdecl list

type rfunc = {
  rf_name : string;
  rf_params : (int * string * Ctype.t) list;
  rf_nparams : int;
  rf_nslots : int;
  rf_body : rstmt list;
}

type rglobal = {
  rg_name : string;
  rg_type : Ctype.t;
  rg_loc : Srcloc.t;
  rg_init : rinit option;
}

type t = {
  rp_funcs : rfunc array;
  rp_fn_index : (string, int) Hashtbl.t;
  rp_globals : rglobal array;
  rp_global_index : (string, int) Hashtbl.t;
  rp_locs : Srcloc.t array;
}

let resolve (program : Ast.program) : t =
  let program = Scope.uniquify program in
  let globals = Array.of_list (Ast.global_decls program) in
  let funcs = Ast.functions program in
  let global_index = Hashtbl.create 16 in
  Array.iteri
    (fun i (d : Ast.decl) -> Hashtbl.replace global_index d.Ast.d_name i)
    globals;
  let fn_index = Hashtbl.create 16 in
  List.iteri
    (fun i (f : Ast.func) ->
      if not (Hashtbl.mem fn_index f.Ast.f_name) then
        Hashtbl.add fn_index f.Ast.f_name i)
    funcs;
  (* The current function's locals: each name's frame slot and declared
     type. *)
  let locals = Hashtbl.create 16 in
  (* What [name] denotes, with the type [sizeof] folds to ([int] when
     nothing binds the name). *)
  let binding name =
    match Hashtbl.find_opt locals name with
    | Some (i, ty) -> (Local i, ty)
    | None -> begin
        match Hashtbl.find_opt global_index name with
        | Some g -> (Global g, globals.(g).Ast.d_type)
        | None -> (Unbound, Ctype.Int)
      end
  in
  let rec rexpr (e : Ast.expr) : rexpr =
    match e with
    | Ast.Int_lit n -> Rlit (Value.Vint n)
    | Ast.Float_lit f -> Rlit (Value.Vfloat f)
    | Ast.Char_lit c -> Rlit (Value.Vint (Char.code c))
    | Ast.Str_lit s -> Rstr s
    | Ast.Var name -> begin
        (* an ambient constant, unless the program binds the name *)
        match fst (binding name) with
        | Unbound -> begin
            match
              List.find_map
                (fun (n, v) -> if String.equal n name then v else None)
                Scope.ambient
            with
            | Some n -> Rlit (Value.Vint n)
            | None -> Rvar (Unbound, name)
          end
        | slot -> Rvar (slot, name)
      end
    | Ast.Unary (op, inner) -> Runary (op, rexpr inner)
    | Ast.Binary (op, a, b) -> Rbinary (op, rexpr a, rexpr b)
    | Ast.Assign (op, lhs, rhs) -> Rassign (op, rexpr lhs, rexpr rhs)
    | Ast.Cond (c, a, b) -> Rcond (rexpr c, rexpr a, rexpr b)
    | Ast.Call (name, args) -> begin
        let rargs = List.map rexpr args in
        match Hashtbl.find_opt fn_index name with
        | Some idx -> Rcall_user (idx, rargs)
        | None -> Rcall_builtin (name, rargs, args)
      end
    | Ast.Index (arr, idx) -> Rindex (rexpr arr, rexpr idx)
    | Ast.Cast (ty, inner) -> Rcast (ty, rexpr inner)
    | Ast.Sizeof_type ty -> Rlit (Value.Vint (Ctype.sizeof ty))
    | Ast.Sizeof_expr (Ast.Var name) ->
        (* sizeof does not evaluate its operand in C; approximate with the
           declared type when the operand is a variable *)
        Rlit (Value.Vint (Ctype.sizeof (snd (binding name))))
    | Ast.Sizeof_expr _ -> Rlit (Value.Vint (Ctype.sizeof Ctype.Int))
    | Ast.Comma (a, b) -> Rcomma (rexpr a, rexpr b)
  in
  let rinit = function
    | Ast.Init_expr e -> Rinit_expr (rexpr e)
    | Ast.Init_list es -> Rinit_list (List.map rexpr es)
  in
  (* Source lines interned to indices into [rp_locs]: one entry per
     distinct (file, line), so the profiler's line attribution is an
     array lookup. *)
  let loc_tbl = Hashtbl.create 64 in
  let locs_rev = ref [] in
  let n_locs = ref 0 in
  let intern_loc (loc : Srcloc.t) =
    let key = (loc.Srcloc.file, loc.Srcloc.line) in
    match Hashtbl.find_opt loc_tbl key with
    | Some i -> i
    | None ->
        let i = !n_locs in
        incr n_locs;
        Hashtbl.replace loc_tbl key i;
        locs_rev := loc :: !locs_rev;
        i
  in
  (* One function: parameters first, then each declaration, bound before
     its own initializer.  Names are unique in the function, so the order
     in which sibling statements are bound does not matter. *)
  let rfunc (fn : Ast.func) =
    Hashtbl.reset locals;
    let nslots = ref 0 in
    let bind name ty =
      let slot = !nslots in
      incr nslots;
      Hashtbl.replace locals name (slot, ty);
      slot
    in
    let rdecl (d : Ast.decl) =
      let rd_slot = bind d.Ast.d_name d.Ast.d_type in
      {
        rd_slot;
        rd_name = d.Ast.d_name;
        rd_type = d.Ast.d_type;
        rd_loc = d.Ast.d_loc;
        rd_init = Option.map rinit d.Ast.d_init;
      }
    in
    let rec rstmt (s : Ast.stmt) : rstmt =
      let body = rstmt_desc s in
      match s.Ast.s_desc with
      (* blocks only recurse (their children carry their own lines) and
         nulls execute nothing — wrapping them would be pure overhead *)
      | Ast.Sblock _ | Ast.Snull -> body
      | _ ->
          if s.Ast.s_loc.Srcloc.line > 0 then
            Rsat (intern_loc s.Ast.s_loc, body)
          else body
    and rstmt_desc (s : Ast.stmt) : rstmt =
      match s.Ast.s_desc with
      | Ast.Sexpr e -> Rsexpr (rexpr e)
      | Ast.Sdecl ds -> Rsdecl (List.map rdecl ds)
      | Ast.Sblock ss -> Rsblock (List.map rstmt ss)
      | Ast.Sif (c, a, b) -> Rsif (rexpr c, rstmt a, Option.map rstmt b)
      | Ast.Swhile (c, b) -> Rswhile (rexpr c, rstmt b)
      | Ast.Sdo (b, c) -> Rsdo (rstmt b, rexpr c)
      | Ast.Sfor (init, cond, step, body) ->
          let rinit_ =
            match init with
            | Ast.For_none -> Rfor_none
            | Ast.For_expr e -> Rfor_expr (rexpr e)
            | Ast.For_decl ds -> Rfor_decl (List.map rdecl ds)
          in
          Rsfor
            ( rinit_,
              Option.map rexpr cond,
              Option.map rexpr step,
              rstmt body )
      | Ast.Sreturn e -> Rsreturn (Option.map rexpr e)
      | Ast.Sbreak -> Rsbreak
      | Ast.Scontinue -> Rscontinue
      | Ast.Snull -> Rsnull
    in
    let rf_params =
      List.map (fun (p, ty) -> (bind p ty, p, ty)) fn.Ast.f_params
    in
    let rf_body = List.map rstmt fn.Ast.f_body in
    {
      rf_name = fn.Ast.f_name;
      rf_params;
      rf_nparams = List.length fn.Ast.f_params;
      rf_nslots = !nslots;
      rf_body;
    }
  in
  let rp_funcs = Array.of_list (List.map rfunc funcs) in
  let rp_globals =
    Array.map
      (fun (d : Ast.decl) ->
        {
          rg_name = d.Ast.d_name;
          rg_type = d.Ast.d_type;
          rg_loc = d.Ast.d_loc;
          rg_init = Option.map rinit d.Ast.d_init;
        })
      globals
  in
  {
    rp_funcs;
    rp_fn_index = fn_index;
    rp_globals;
    rp_global_index = global_index;
    rp_locs = Array.of_list (List.rev !locs_rev);
  }

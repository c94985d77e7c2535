open Cfront

(* The locality plan: which shared allocations the optimizer may touch,
   and how.

   Built on the translated (RCCE) generation, after shared-rewrite has
   turned every shared global into a pointer with an explicit cast
   RCCE_shmalloc of [sizeof(T) * n] at the top of the entry function.
   The plan classifies each such allocation:

   - {e escaped}: the pointer is used other than as an index base, a
     scalar dereference, or its own allocation — e.g. passed to a call
     or stored somewhere.  Escaped pointers are untouchable.
   - {e read-only after the init prefix}: every write lands in the entry
     function strictly before the {e insertion point} — the first
     top-level statement that calls into a defined function (where the
     per-core workers take over).  Such data is immutable for the whole
     parallel phase.
   - {e MPB candidate}: read-only multi-element array of scalar element
     type whose bytes fit the owning core's MPB slice, ranked by the
     access-count estimate of its reads.  Capacity is checked by
     replaying the program's collective [RCCE_malloc] sequence against a
     fresh {!Scc.Memmap} and dry-running the candidate's striped
     allocation, exactly as the interpreter will. *)

type shared_alloc = {
  sa_name : string;
  sa_elt : Ctype.t;
  sa_count : int;
  sa_alloc_fn : string;    (* RCCE_shmalloc or RCCE_malloc *)
  sa_index : int;          (* top-level statement index in entry *)
}

type mpb_candidate = {
  mc_name : string;
  mc_elt : Ctype.t;
  mc_count : int;
  mc_bytes : int;
  mc_reads : int;          (* access-count estimate *)
  mc_owner : int;          (* MPB slice core: collective-call order mod ncores *)
}

type t = {
  entry : string;
  insert_at : int option;
  allocs : shared_alloc list;
  escaped : string list;
  read_only : string list;  (* non-escaped, read-only after the init prefix *)
  mpb : mpb_candidate list; (* selected, hottest first, capacity-checked *)
  rejected : (string * string) list;  (* candidate, reason *)
}

let entry_body program =
  match Ast.find_function program (Ast.entry_name program) with
  | Some fn -> fn.Ast.f_body
  | None -> []

(* --- allocation discovery ------------------------------------------------- *)

let alloc_of_stmt i (s : Ast.stmt) =
  match s.Ast.s_desc with
  | Ast.Sexpr
      (Ast.Assign
         ( None,
           Ast.Var v,
           Ast.Cast
             ( Ctype.Ptr elt,
               Ast.Call
                 ( (("RCCE_shmalloc" | "RCCE_malloc") as fn),
                   [ Ast.Binary (Ast.Mul, Ast.Sizeof_type ty, Ast.Int_lit n) ]
                 ) ) ))
    when Ctype.equal elt ty && n >= 1 ->
      Some { sa_name = v; sa_elt = elt; sa_count = n; sa_alloc_fn = fn;
             sa_index = i }
  | _ -> None

let discover_allocs program =
  entry_body program |> List.mapi alloc_of_stmt |> List.filter_map Fun.id

(* --- the insertion point --------------------------------------------------- *)

(* First top-level entry statement that calls into a defined function:
   from here on the per-core workers run, so a fill-and-barrier prologue
   inserted at this index executes after the whole init prefix and
   before any parallel use. *)
let stmt_calls_defined defined (s : Ast.stmt) =
  let found = ref false in
  Visit.iter_exprs_of_stmt (fun e ->
      match e with
      | Ast.Call (name, _) when List.mem name defined -> found := true
      | _ -> ())
    s;
  !found

let insertion_point program =
  let entry = Ast.entry_name program in
  let defined =
    List.filter_map
      (fun (fn : Ast.func) ->
        if String.equal fn.Ast.f_name entry then None else Some fn.Ast.f_name)
      (Ast.functions program)
  in
  let rec scan i = function
    | [] -> None
    | s :: rest ->
        if stmt_calls_defined defined s then Some i else scan (i + 1) rest
  in
  scan 0 (entry_body program)

(* --- use classification ---------------------------------------------------- *)

(* A use of [v] is tame when it only ever appears as an index base
   [v[i]], a scalar dereference [*v], or the left-hand side of its own
   allocation; any bare occurrence (call argument, pointer arithmetic,
   aliasing store) escapes. *)
let expr_escapes v e =
  let rec scan e =
    match e with
    | Ast.Var u -> String.equal u v
    | Ast.Index (Ast.Var u, i) when String.equal u v -> scan i
    | Ast.Unary (Ast.Deref, Ast.Var u) when String.equal u v -> false
    | Ast.Assign (None, Ast.Var u, rhs) when String.equal u v -> (
        (* its own allocation keeps the pointer tame *)
        match rhs with
        | Ast.Cast (_, Ast.Call (("RCCE_shmalloc" | "RCCE_malloc"), args)) ->
            List.exists scan args
        | _ -> true)
    | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _ | Ast.Char_lit _
    | Ast.Sizeof_type _ -> false
    | Ast.Unary (_, a) | Ast.Cast (_, a) | Ast.Sizeof_expr a -> scan a
    | Ast.Binary (_, a, b) | Ast.Assign (_, a, b) | Ast.Index (a, b)
    | Ast.Comma (a, b) -> scan a || scan b
    | Ast.Cond (a, b, c) -> scan a || scan b || scan c
    | Ast.Call (_, args) -> List.exists scan args
  in
  scan e

(* The contextual scanner must start from expression roots (a blind
   subexpression walk would flag the tame [Index (Var v, _)]'s own
   child), so iterate statement-shallow expressions, not every node. *)
let escapes v program =
  let found = ref false in
  let check_expr e = if expr_escapes v e then found := true in
  List.iter
    (fun g ->
      match g with
      | Ast.Gfunc fn ->
          List.iter (Visit.iter_stmt (fun s ->
              List.iter check_expr (Visit.shallow_exprs s)))
            fn.Ast.f_body
      | Ast.Gvar d ->
          List.iter check_expr (Visit.exprs_of_decl d)
      | Ast.Gproto _ -> ())
    program.Ast.p_globals;
  !found

(* Writes to [v]'s pointee: [v[i] = e], [*v = e], compound assignments
   and increments through either shape. *)
let expr_writes v e =
  let is_lv = function
    | Ast.Index (Ast.Var u, _) | Ast.Unary (Ast.Deref, Ast.Var u) ->
        String.equal u v
    | _ -> false
  in
  Visit.fold_expr
    (fun acc e ->
      acc
      ||
      match e with
      | Ast.Assign (_, lv, _) when is_lv lv -> true
      | Ast.Unary ((Ast.Preinc | Ast.Predec | Ast.Postinc | Ast.Postdec), lv)
        when is_lv lv -> true
      | _ -> false)
    false e

let stmt_writes v s =
  let found = ref false in
  Visit.iter_stmt
    (fun s ->
      List.iter
        (fun e -> if expr_writes v e then found := true)
        (Visit.shallow_exprs s))
    s;
  !found

(* All writes land in the entry function, at top-level indices before
   the insertion point. *)
let read_only_after_prefix program ~insert_at v =
  let entry = Ast.entry_name program in
  let ok_in_entry =
    List.for_all
      (fun (i, s) -> (not (stmt_writes v s)) || i < insert_at)
      (List.mapi (fun i s -> (i, s)) (entry_body program))
  in
  let ok_elsewhere =
    List.for_all
      (fun (fn : Ast.func) ->
        String.equal fn.Ast.f_name entry
        || not (List.exists (stmt_writes v) fn.Ast.f_body))
      (Ast.functions program)
  in
  ok_in_entry && ok_elsewhere

(* --- MPB capacity dry-run --------------------------------------------------- *)

(* The interpreter satisfies the k-th collective RCCE_malloc of the run
   from the MPB slice of core [k mod ncores].  Replay the pre-existing
   top-level collective allocations, then dry-run each candidate against
   a fresh memory map: a candidate is kept only when its striped
   allocation fits the next slice. *)
let countable_mpb_bytes program =
  (* collective calls must all be countable top-level entry allocations;
     an RCCE_malloc anywhere else makes the call order unknowable *)
  let top_level = discover_allocs program in
  let top_names =
    List.filter_map
      (fun a -> if a.sa_alloc_fn = "RCCE_malloc" then Some a else None)
      top_level
  in
  let total_calls = ref 0 in
  Visit.iter_exprs_of_program (fun e ->
      match e with
      | Ast.Call ("RCCE_malloc", _) -> incr total_calls
      | _ -> ())
    program;
  if !total_calls <> List.length top_names then None
  else
    Some
      (List.map (fun a -> Ctype.sizeof a.sa_elt * a.sa_count) top_names)

let select_mpb ~ncores ~existing candidates =
  let cfg = Scc.Config.default in
  if ncores <= 0 || ncores > Scc.Config.n_cores cfg then ([], candidates |> List.map (fun c -> (c.mc_name, "core count out of range")))
  else begin
    let mm = Scc.Memmap.create cfg in
    let k = ref 0 in
    List.iter
      (fun bytes ->
        (match
           Scc.Memmap.alloc_mpb_striped mm ~cores:[ !k mod ncores ] ~bytes
         with
        | (_ : int list) -> ()
        | exception Scc.Memmap.Out_of_memory _ -> ());
        incr k)
      existing;
    let accepted = ref [] and rejected = ref [] in
    List.iter
      (fun c ->
        let owner = !k mod ncores in
        match
          Scc.Memmap.alloc_mpb_striped mm ~cores:[ owner ] ~bytes:c.mc_bytes
        with
        | (_ : int list) ->
            accepted := { c with mc_owner = owner } :: !accepted;
            incr k
        | exception Scc.Memmap.Out_of_memory _ ->
            rejected :=
              ( c.mc_name,
                Printf.sprintf "does not fit MPB slice of core %d (%d bytes)"
                  owner c.mc_bytes )
              :: !rejected)
      candidates;
    (List.rev !accepted, List.rev !rejected)
  end

(* --- the plan --------------------------------------------------------------- *)

let build ~ncores ~(access : Analysis.Access_count.t) (program : Ast.program) =
  let entry = Ast.entry_name program in
  let allocs = discover_allocs program in
  let insert_at = insertion_point program in
  let escaped =
    List.filter_map
      (fun a -> if escapes a.sa_name program then Some a.sa_name else None)
      allocs
  in
  let read_only =
    match insert_at with
    | None -> []
    | Some p ->
        List.filter_map
          (fun a ->
            if
              (not (List.mem a.sa_name escaped))
              && read_only_after_prefix program ~insert_at:p a.sa_name
            then Some a.sa_name
            else None)
          allocs
  in
  let candidates =
    List.filter_map
      (fun a ->
        if
          a.sa_count >= 2
          && Ctype.is_scalar a.sa_elt
          && List.mem a.sa_name read_only
          && String.equal a.sa_alloc_fn "RCCE_shmalloc"
        then
          Some
            { mc_name = a.sa_name; mc_elt = a.sa_elt; mc_count = a.sa_count;
              mc_bytes = Ctype.sizeof a.sa_elt * a.sa_count;
              mc_reads =
                Analysis.Access_count.reads access
                  (Ir.Var_id.global a.sa_name);
              mc_owner = 0 }
        else None)
      allocs
    |> List.sort (fun a b -> compare b.mc_reads a.mc_reads)
  in
  let mpb, rejected =
    match countable_mpb_bytes program with
    | None ->
        ( [],
          List.map
            (fun c -> (c.mc_name, "collective RCCE_malloc order unknowable"))
            candidates )
    | Some existing -> select_mpb ~ncores ~existing candidates
  in
  { entry; insert_at; allocs; escaped; read_only; mpb; rejected }

let summary t =
  Printf.sprintf
    "entry=%s insert_at=%s allocs=[%s] read_only=[%s] mpb=[%s]"
    t.entry
    (match t.insert_at with None -> "-" | Some i -> string_of_int i)
    (String.concat "," (List.map (fun a -> a.sa_name) t.allocs))
    (String.concat "," t.read_only)
    (String.concat ","
       (List.map
          (fun c -> Printf.sprintf "%s(%dB@%d)" c.mc_name c.mc_bytes c.mc_owner)
          t.mpb))

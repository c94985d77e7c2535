open Cfront

(* ---------------------------------------------------------------- *)
(* Sabotage                                                         *)

type sabotage =
  | Drop_pass of string
  | Shrink_shmalloc
  | Illegal_hoist

let sabotage_of_string s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "drop-pass" ->
      let name = String.sub s (i + 1) (String.length s - i - 1) in
      let known =
        List.map
          (fun p -> p.Translate.Pass.name)
          (Translate.Driver.passes_for
             { Translate.Pass.default_options with Translate.Pass.optimize = true })
      in
      if List.mem name known then Ok (Drop_pass name)
      else
        Error
          (Printf.sprintf "unknown pass %S (known: %s)" name
             (String.concat ", " known))
  | _ ->
      if s = "shrink-shmalloc" then Ok Shrink_shmalloc
      else if s = "illegal-hoist" then Ok Illegal_hoist
      else
        Error
          (Printf.sprintf
             "unrecognized sabotage %S (try drop-pass:<name>, \
              shrink-shmalloc or illegal-hoist)" s)

let sabotage_to_string = function
  | Drop_pass name -> "drop-pass:" ^ name
  | Shrink_shmalloc -> "shrink-shmalloc"
  | Illegal_hoist -> "illegal-hoist"

(* Under-allocate every multi-element shmalloc region by one element —
   [RCCE_shmalloc(sizeof(T) * n)] becomes [... * (n - 1)] — as a final
   pipeline pass.  Every generated index into such a region can then
   reach past the end, so a bounds verifier that still proves the
   program safe is unsound (the soundness stressor's killing mutation). *)
let shrink_shmalloc_pass =
  { Translate.Pass.name = "shrink-shmalloc";
    transform =
      (fun _ctx program ->
        Visit.map_program_exprs
          (fun e ->
            match e with
            | Ast.Call
                ("RCCE_shmalloc",
                 [ Ast.Binary (Ast.Mul, (Ast.Sizeof_type _ as sz),
                               Ast.Int_lit n) ])
              when n >= 2 ->
                Ast.Call
                  ("RCCE_shmalloc",
                   [ Ast.Binary (Ast.Mul, sz, Ast.Int_lit (n - 1)) ])
            | e -> e)
          program);
    forbids_after = [];
    must_follow = [] }

(* Hoist a lock-protected shared read out of its critical section — the
   exact transformation the optimizer's legality analysis must refuse.
   Every adjacent triple

     RCCE_acquire_lock(k); *g = ... *g ...; RCCE_release_lock(k);

   is rewritten to read [*g] into a fresh private temporary BEFORE the
   acquire and use the stale copy inside the critical section.  Two
   cores racing through the same critical section then lose updates, so
   the dual-execution oracle must diverge; if it does not, it has no
   teeth against an optimizer bug of this shape. *)
let illegal_hoist_pass =
  let pointee program g =
    program.Ast.p_globals
    |> List.find_map (fun glob ->
           match glob with
           | Ast.Gvar d when String.equal d.Ast.d_name g -> (
               match d.Ast.d_type with
               | Ctype.Ptr t -> Some t
               | _ -> None)
           | _ -> None)
    |> Option.value ~default:Ctype.Int
  in
  { Translate.Pass.name = "illegal-hoist";
    transform =
      (fun _ctx program ->
        let fresh = ref 0 in
        let rec stmts = function
          | ({ Ast.s_desc = Ast.Sexpr (Ast.Call ("RCCE_acquire_lock", _));
               _ } as acq)
            :: ({ Ast.s_desc =
                    Ast.Sexpr
                      (Ast.Assign (op, (Ast.Unary (Ast.Deref, Ast.Var g)
                                        as lhs), rhs));
                  _ } as upd)
            :: ({ Ast.s_desc = Ast.Sexpr (Ast.Call ("RCCE_release_lock", _));
                  _ } as rel)
            :: rest ->
              let tmp = Printf.sprintf "__sab_%d" !fresh in
              incr fresh;
              let stale = Ast.var tmp in
              (* [*g op= rhs] reads *g implicitly; rewrite it to the
                 explicit [*g = tmp op rhs] over the stale copy.  A plain
                 [*g = rhs] has its rhs reads of *g redirected. *)
              let upd' =
                match op with
                | Some binop ->
                    { upd with
                      Ast.s_desc =
                        Ast.Sexpr
                          (Ast.assign lhs (Ast.Binary (binop, stale, rhs))) }
                | None ->
                    { upd with
                      Ast.s_desc =
                        Ast.Sexpr
                          (Ast.assign lhs
                             (Visit.map_expr
                                (fun e ->
                                  match e with
                                  | Ast.Unary (Ast.Deref, Ast.Var x)
                                    when String.equal x g ->
                                      stale
                                  | e -> e)
                                rhs)) }
              in
              Ast.stmt
                (Ast.Sdecl
                   [ Ast.decl
                       ~init:
                         (Ast.Init_expr (Ast.Unary (Ast.Deref, Ast.var g)))
                       tmp (pointee program g) ])
              :: acq :: upd' :: rel :: stmts rest
          | s :: rest -> into s :: stmts rest
          | [] -> []
        and into s =
          match s.Ast.s_desc with
          | Ast.Sblock b -> { s with Ast.s_desc = Ast.Sblock (stmts b) }
          | Ast.Sif (c, a, b) ->
              { s with Ast.s_desc = Ast.Sif (c, into a, Option.map into b) }
          | Ast.Swhile (c, body) ->
              { s with Ast.s_desc = Ast.Swhile (c, into body) }
          | Ast.Sdo (body, c) ->
              { s with Ast.s_desc = Ast.Sdo (into body, c) }
          | Ast.Sfor (i, c, st, body) ->
              { s with Ast.s_desc = Ast.Sfor (i, c, st, into body) }
          | _ -> s
        in
        let globals =
          List.map
            (fun g ->
              match g with
              | Ast.Gfunc fn ->
                  Ast.Gfunc { fn with Ast.f_body = stmts fn.Ast.f_body }
              | g -> g)
            program.Ast.p_globals
        in
        { program with Ast.p_globals = globals });
    forbids_after = [];
    must_follow = [] }

let apply_sabotage sabotage (cfg : Oracle.config) =
  let passes = Translate.Driver.passes_for cfg.Oracle.options in
  let passes =
    match sabotage with
    | Drop_pass name ->
        List.filter (fun p -> p.Translate.Pass.name <> name) passes
    | Shrink_shmalloc -> passes @ [ shrink_shmalloc_pass ]
    | Illegal_hoist -> passes @ [ illegal_hoist_pass ]
  in
  { cfg with Oracle.passes = Some passes }

(* ---------------------------------------------------------------- *)
(* Fuzzing                                                          *)

type outcome = {
  o_seed : int;
  o_spec : Gen.spec;
  o_failure : Oracle.failure;
  o_program : Ast.program;
  o_shrunk : Ast.program;
  o_evals : int;
}

type summary = { s_total : int; s_failures : outcome list }

let run ?(progress = fun ~index:_ ~seed:_ _ -> ()) ?(shrink_budget = 250)
    ?sabotage ?(optimize = false) ~seed ~count () =
  let failures = ref [] in
  for i = 0 to count - 1 do
    let gseed = seed + i in
    let spec, program = Gen.generate ~seed:gseed in
    let cfg = Oracle.config_of_spec spec in
    let cfg =
      if optimize then
        { cfg with
          Oracle.options =
            { cfg.Oracle.options with Translate.Pass.optimize = true } }
      else cfg
    in
    let cfg =
      match sabotage with None -> cfg | Some s -> apply_sabotage s cfg
    in
    let verdict = Oracle.check cfg program in
    progress ~index:i ~seed:gseed verdict;
    match verdict with
    | Oracle.Agree -> ()
    | Oracle.Diverge failure ->
        let shrunk, evals =
          if shrink_budget <= 0 then (program, 0)
          else
            Shrink.shrink ~budget:shrink_budget cfg
              ~kind:(Oracle.kind_of_failure failure)
              program
        in
        failures :=
          { o_seed = gseed; o_spec = spec; o_failure = failure;
            o_program = program; o_shrunk = shrunk; o_evals = evals }
          :: !failures
  done;
  { s_total = count; s_failures = List.rev !failures }

(* ---------------------------------------------------------------- *)
(* Corpus files                                                     *)

type expectation = Expect_agree | Expect_diverge of string

type directives = {
  d_cores : int;
  d_many_to_one : bool;
  d_optimize : bool;
  d_expect : expectation;
}

let expectation_to_string = function
  | Expect_agree -> "agree"
  | Expect_diverge kind -> "diverge " ^ kind

let corpus_file ?seed ?note ~spec_line d program =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b ("// " ^ s ^ "\n")) fmt in
  (match seed with Some s -> line "conform-seed: %d" s | None -> ());
  line "conform-spec: %s" spec_line;
  line "conform-cores: %d" d.d_cores;
  line "conform-many-to-one: %b" d.d_many_to_one;
  line "conform-optimize: %b" d.d_optimize;
  line "conform-expect: %s" (expectation_to_string d.d_expect);
  (match note with
  | Some n ->
      String.split_on_char '\n' n |> List.iter (fun l -> line "conform-note: %s" l)
  | None -> ());
  Buffer.add_char b '\n';
  Buffer.add_string b (Pretty.program program);
  Buffer.contents b

let parse_directives contents =
  let directive line =
    (* "// conform-key: value" *)
    let line = String.trim line in
    if String.length line > 3 && String.sub line 0 3 = "// " then
      let rest = String.sub line 3 (String.length line - 3) in
      match String.index_opt rest ':' with
      | Some i when String.length rest > 8 && String.sub rest 0 8 = "conform-" ->
          let key = String.sub rest 0 i in
          let value = String.trim (String.sub rest (i + 1) (String.length rest - i - 1)) in
          Some (key, value)
      | _ -> None
    else None
  in
  let kvs =
    String.split_on_char '\n' contents |> List.filter_map directive
  in
  let find key = List.assoc_opt ("conform-" ^ key) kvs in
  let int_of key =
    match find key with
    | None -> Error (Printf.sprintf "missing // conform-%s directive" key)
    | Some v -> (
        match int_of_string_opt v with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "conform-%s: not an integer: %S" key v))
  in
  let bool_of key default =
    match find key with
    | None -> Ok default
    | Some "true" -> Ok true
    | Some "false" -> Ok false
    | Some v -> Error (Printf.sprintf "conform-%s: not a boolean: %S" key v)
  in
  let ( let* ) = Result.bind in
  let* d_cores = int_of "cores" in
  let* d_many_to_one = bool_of "many-to-one" false in
  let* d_optimize = bool_of "optimize" false in
  let* d_expect =
    match find "expect" with
    | None | Some "agree" -> Ok Expect_agree
    | Some v -> (
        match String.split_on_char ' ' v with
        | [ "diverge"; kind ] -> Ok (Expect_diverge kind)
        | _ -> Error (Printf.sprintf "conform-expect: unrecognized %S" v))
  in
  Ok { d_cores; d_many_to_one; d_optimize; d_expect }

let config_of_directives d =
  { Oracle.options =
      { Translate.Pass.default_options with
        Translate.Pass.ncores = d.d_cores;
        many_to_one = d.d_many_to_one;
        optimize = d.d_optimize };
    passes = None }

let replay ?(force_optimize = false) ~file contents =
  match parse_directives contents with
  | Error e -> Error e
  | Ok d -> (
      let d = { d with d_optimize = d.d_optimize || force_optimize } in
      match
        try Ok (Parser.program ~file contents)
        with Srcloc.Error (loc, m) ->
          Error (Printf.sprintf "%s: %s" (Srcloc.to_string loc) m)
      with
      | Error e -> Error ("parse error: " ^ e)
      | Ok program -> (
          let verdict = Oracle.check (config_of_directives d) program in
          match (d.d_expect, verdict) with
          | Expect_agree, Oracle.Agree -> Ok ()
          | Expect_diverge kind, Oracle.Diverge f
            when Oracle.kind_of_failure f = kind ->
              Ok ()
          | Expect_agree, Oracle.Diverge f ->
              Error
                (Printf.sprintf "expected agreement, diverged: %s"
                   (Oracle.failure_to_string f))
          | Expect_diverge kind, Oracle.Agree ->
              Error
                (Printf.sprintf
                   "expected a %s divergence, but the executions agree" kind)
          | Expect_diverge kind, Oracle.Diverge f ->
              Error
                (Printf.sprintf "expected a %s divergence, got %s" kind
                   (Oracle.failure_to_string f))))

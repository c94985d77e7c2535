open Cfront

(* The query-based compilation session.

   One session owns the parsed program and a registry of fact providers
   (Stage 1-3 analyses, CFGs, lockset dataflow, race reports, the Stage-4
   partition).  Facts are demanded, not pushed: each provider forces its
   dependencies, runs at most once per program generation, and records
   invocation counts and wall-clock time.  Transform passes publish new
   program generations through [set_program], which invalidates the
   cache — the counters stay cumulative, which is what the --timings
   report and the exactly-once tests read. *)

type options = {
  ncores : int;
  capacity : int;
  strategy : Partition.Partitioner.strategy;
  sound_locals : bool;
  many_to_one : bool;
  optimize : bool;
  sharpen : bool;
}

let default_options =
  {
    ncores = Partition.Memspec.scc.Partition.Memspec.cores;
    capacity = 0;   (* all-off-chip, the Figure 6.1 configuration *)
    strategy = Partition.Partitioner.Size_ascending;
    sound_locals = false;
    many_to_one = false;
    optimize = false;
    sharpen = false;
  }

(* --- instrumentation ------------------------------------------------------- *)

type stat = {
  s_name : string;
  s_kind : [ `Fact | `Pass ];
  s_deps : string list;
  mutable s_invocations : int;
  mutable s_wall_s : float;
}

let kind_to_string = function `Fact -> "fact" | `Pass -> "pass"

(* The compiler's track in a merged Chrome trace.  Simulator tracks use
   the core number as pid and the profiler's metric track uses 9998, so
   a compile-then-simulate run shows as three distinct processes. *)
let compiler_pid = 9999

type timing = {
  t_name : string;
  t_kind : [ `Fact | `Pass ];
  t_invocations : int;
  t_wall_s : float;
  t_deps : string list;
}

(* --- the session ----------------------------------------------------------- *)

(* A memoized slot, stamped with the generation it was computed for. *)
type 'a cell = { mutable slot : (int * 'a) option }

let cell () = { slot = None }

type snapshot = Analysis.Pipeline.snapshot

type t = {
  mutable prog : Ast.program;
  src_file : string option;
  opts : options;
  mutable gen : int;
  stats : (string, stat) Hashtbl.t;
  mutable stat_order : string list;       (* reverse first-invocation order *)
  spans : Obs.Spans.t;   (* one wall-clock span per provider invocation *)
  symtab_c : Ir.Symtab.t cell;
  scope_c : (Analysis.Scope_analysis.t * snapshot) cell;
  threads_c : (Analysis.Thread_analysis.t * snapshot) cell;
  points_to_c : (Analysis.Points_to.t * snapshot) cell;
  access_c : Analysis.Access_count.t cell;
  pipeline_c : Analysis.Pipeline.t cell;
  cfgs_c : (string * Ir.Cfg.t) list cell;
  locksets_c : (string * Analysis.Lockheld.t) list cell;
  races_c : Analysis.Race.t cell;
  race_diags_c : Diag.t list cell;
  partition_c : Partition.Partitioner.result cell;
  absint_c : Absint.Oblig.summary cell;
  bounds_c : Diag.t list cell;
  sharpen_c : string list cell;
  sync_regions_c : Opt.Sync_regions.t cell;
  opt_plan_c : Opt.Opt_plan.t cell;
}

let create ?file ?(options = default_options) program =
  {
    prog = program;
    src_file = file;
    opts = options;
    gen = 0;
    stats = Hashtbl.create 16;
    stat_order = [];
    spans = Obs.Spans.create ~epoch:(Obs.wall_clock_ns ()) ();
    symtab_c = cell ();
    scope_c = cell ();
    threads_c = cell ();
    points_to_c = cell ();
    access_c = cell ();
    pipeline_c = cell ();
    cfgs_c = cell ();
    locksets_c = cell ();
    races_c = cell ();
    race_diags_c = cell ();
    partition_c = cell ();
    absint_c = cell ();
    bounds_c = cell ();
    sharpen_c = cell ();
    sync_regions_c = cell ();
    opt_plan_c = cell ();
  }

let program t = t.prog
let file t = t.src_file
let options t = t.opts
let generation t = t.gen

let invalidate t =
  t.symtab_c.slot <- None;
  t.scope_c.slot <- None;
  t.threads_c.slot <- None;
  t.points_to_c.slot <- None;
  t.access_c.slot <- None;
  t.pipeline_c.slot <- None;
  t.cfgs_c.slot <- None;
  t.locksets_c.slot <- None;
  t.races_c.slot <- None;
  t.race_diags_c.slot <- None;
  t.partition_c.slot <- None;
  t.absint_c.slot <- None;
  t.bounds_c.slot <- None;
  t.sharpen_c.slot <- None;
  t.sync_regions_c.slot <- None;
  t.opt_plan_c.slot <- None

let set_program t program =
  t.prog <- program;
  t.gen <- t.gen + 1;
  invalidate t

(* --- provider machinery ---------------------------------------------------- *)

let stat_of t name kind deps =
  match Hashtbl.find_opt t.stats name with
  | Some s -> s
  | None ->
      let s =
        { s_name = name; s_kind = kind; s_deps = deps;
          s_invocations = 0; s_wall_s = 0. }
      in
      Hashtbl.replace t.stats name s;
      t.stat_order <- name :: t.stat_order;
      s

let timed t name kind deps compute =
  let s = stat_of t name kind deps in
  let t0 = Obs.wall_clock_ns () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Obs.wall_clock_ns () in
      s.s_wall_s <- s.s_wall_s +. (float_of_int (t1 - t0) /. 1e9);
      Obs.Spans.record t.spans ~name ~cat:(kind_to_string kind)
        ~pid:compiler_pid ~tid:0 ~start:t0 ~dur:(t1 - t0) ())
    (fun () ->
      s.s_invocations <- s.s_invocations + 1;
      compute ())

(* Demand one fact: return the cached value when it is of the current
   generation, otherwise run the provider (dependencies were already
   forced by the accessor, so the timed region is this provider alone). *)
let demand t cl name deps compute =
  match cl.slot with
  | Some (g, v) when g = t.gen -> v
  | Some _ | None ->
      let v = timed t name `Fact deps compute in
      cl.slot <- Some (t.gen, v);
      v

let record_pass t ~name f = timed t name `Pass [] f

(* --- the provider graph ---------------------------------------------------- *)

(* The only builders of a generation's symbol table and CFGs: every
   analysis takes them from here. *)
let symtab t =
  demand t t.symtab_c "symtab" [] (fun () -> Ir.Symtab.build t.prog)

let cfgs t =
  demand t t.cfgs_c "cfgs" [] (fun () ->
      List.map
        (fun (fn : Ast.func) -> (fn.Ast.f_name, Ir.Cfg.build fn))
        (Ast.functions t.prog))

(* Stage 1.  The scope table is refined in place by the Stage 2/3
   providers, so [scope] alone gives the Stage-1 view only until a later
   stage is demanded — exactly the paper's in-order refinement. *)
let scope_snap t =
  let st = symtab t in
  demand t t.scope_c "scope" [ "symtab" ] (fun () ->
      Analysis.Pipeline.stage1 st)

let scope t = fst (scope_snap t)

let threads_snap t =
  let sc = scope t in
  demand t t.threads_c "threads" [ "scope" ] (fun () ->
      Analysis.Pipeline.stage2 sc)

let threads t = fst (threads_snap t)

let points_to_snap t =
  let st = symtab t in
  let sc = scope t in
  (* Stage 3 refines on top of Stage 2's refinement: force the order. *)
  let (_ : Analysis.Thread_analysis.t) = threads t in
  let cfgs = cfgs t in
  demand t t.points_to_c "points-to" [ "symtab"; "scope"; "threads"; "cfgs" ]
    (fun () -> Analysis.Pipeline.stage3 st sc cfgs)

let points_to t = fst (points_to_snap t)

(* The estimates read the program and its pthread_create sites, nothing
   Stages 1-3 compute: under -O, the optimizer's [opt_plan] of a rewritten
   generation demands this and the symbol table alone. *)
let access_counts t =
  let st = symtab t in
  demand t t.access_c "access-counts" [ "symtab" ] (fun () ->
      Analysis.Access_count.run st
        (Analysis.Thread_analysis.sites (Ir.Symtab.program st)))

(* Thread-modular abstract interpretation over the current generation.
   Mode (Pthread vs RCCE) is auto-detected from the program shape, so
   the same fact serves the source program and its translation. *)
let absint_summary t =
  let st = symtab t in
  let cfgs = cfgs t in
  demand t t.absint_c "absint" [ "symtab"; "cfgs" ] (fun () ->
      Absint.analyze ~ncores:t.opts.ncores st cfgs)

let bounds_verdict t =
  let s = absint_summary t in
  demand t t.bounds_c "bounds-verdict" [ "absint" ] (fun () ->
      Absint.diags_of s)

(* Feed proven thread-locality back into the sharing lattice (globals
   demoted Shared -> Private); returns the demoted names.  Forced by
   [pipeline] when the session options ask for it, so every downstream
   consumer (races, partition, the translator) sees the sharpened
   table. *)
let sharpened t =
  let scope = scope t in
  let threads = threads t in
  (* sharpen on top of the fully-built Table 4.2 lattice *)
  let (_ : Analysis.Points_to.t) = points_to t in
  let s = absint_summary t in
  demand t t.sharpen_c "sharpen" [ "scope"; "threads"; "points-to"; "absint" ]
    (fun () -> Absint.Sharpen.apply ~scope ~threads s)

let pipeline t =
  let scope, after_stage1 = scope_snap t in
  let threads, after_stage2 = threads_snap t in
  let points_to, after_stage3 = points_to_snap t in
  let access = access_counts t in
  let (_ : string list) = if t.opts.sharpen then sharpened t else [] in
  demand t t.pipeline_c "pipeline"
    [ "scope"; "threads"; "points-to"; "access-counts" ] (fun () ->
      { Analysis.Pipeline.scope; threads; points_to; access;
        after_stage1; after_stage2; after_stage3 })

let locksets t =
  let st = symtab t in
  let cfgs = cfgs t in
  demand t t.locksets_c "locksets" [ "symtab"; "cfgs" ] (fun () ->
      List.map
        (fun (name, cfg) -> (name, Analysis.Lockheld.analyze st cfg))
        cfgs)

let races t =
  let p = pipeline t in
  let ls = locksets t in
  demand t t.races_c "races" [ "pipeline"; "locksets" ] (fun () ->
      Analysis.Race.run ~locksets:ls p)

let race_diags t =
  let r = races t in
  demand t t.race_diags_c "race-diags" [ "races" ] (fun () ->
      Analysis.Race.to_diags r)

let partition t =
  let p = pipeline t in
  demand t t.partition_c "partition" [ "pipeline" ] (fun () ->
      let items = Partition.Partitioner.items_of_analysis p in
      Partition.Partitioner.partition ~strategy:t.opts.strategy
        Partition.Memspec.scc ~capacity:t.opts.capacity items)

(* Locality facts for the optimizer stage.  Both are per-generation like
   every other fact: the optimizer passes demand them against the
   translated generation they are about to rewrite, and --timings lists
   them as their own provider rows. *)
let sync_regions t =
  let cfgs = cfgs t in
  demand t t.sync_regions_c "sync-regions" [ "cfgs" ] (fun () ->
      Opt.Sync_regions.analyze ~cfgs t.prog)

let opt_plan t =
  let access = access_counts t in
  demand t t.opt_plan_c "opt-plan" [ "access-counts" ] (fun () ->
      Opt.Opt_plan.build ~ncores:t.opts.ncores ~access t.prog)

(* --- timings report -------------------------------------------------------- *)

let timings t =
  List.rev_map
    (fun name ->
      let s = Hashtbl.find t.stats name in
      { t_name = s.s_name; t_kind = s.s_kind;
        t_invocations = s.s_invocations; t_wall_s = s.s_wall_s;
        t_deps = s.s_deps })
    t.stat_order

let invocations t name =
  match Hashtbl.find_opt t.stats name with
  | Some s -> s.s_invocations
  | None -> 0

let facts_computed t =
  Hashtbl.fold
    (fun _ s acc ->
      if s.s_kind = `Fact then acc + s.s_invocations else acc)
    t.stats 0

let spans t = t.spans

let chrome_events t =
  Obs.Chrome.Process_name { pid = compiler_pid; name = "hsmcc compiler" }
  :: Obs.Chrome.Thread_name
       { pid = compiler_pid; tid = 0; name = "providers" }
  :: Obs.Spans.to_chrome t.spans

(* Human table, in the spirit of lib/diag's gcc renderer: fixed columns,
   one line per provider, machine-stable names. *)
let render_timings t =
  let rows = timings t in
  let lines =
    List.map
      (fun r ->
        Printf.sprintf "%-16s %-5s %6d %10.3f  %s" r.t_name
          (kind_to_string r.t_kind) r.t_invocations (r.t_wall_s *. 1000.)
          (match r.t_deps with [] -> "-" | d -> String.concat ", " d))
      rows
  in
  String.concat "\n"
    (Printf.sprintf "%-16s %-5s %6s %10s  %s" "provider" "kind" "calls"
       "wall-ms" "depends-on"
    :: lines)
  ^ "\n"

(* JSON renderer following lib/diag's conventions: one array of flat
   objects, no trailing newline inside the array. *)
let json_escape = Obs.json_escape

let render_timings_json t =
  let obj r =
    Printf.sprintf
      "  {\"name\": \"%s\", \"kind\": \"%s\", \"invocations\": %d, \
       \"wall_ms\": %.3f, \"deps\": [%s]}"
      (json_escape r.t_name)
      (kind_to_string r.t_kind)
      r.t_invocations (r.t_wall_s *. 1000.)
      (String.concat ", "
         (List.map (fun d -> Printf.sprintf "\"%s\"" (json_escape d)) r.t_deps))
  in
  "[\n" ^ String.concat ",\n" (List.map obj (timings t)) ^ "\n]\n"

let timings_format_of_string = function
  | "table" | "text" -> Some `Table
  | "json" -> Some `Json
  | _ -> None

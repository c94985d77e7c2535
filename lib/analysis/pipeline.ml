(* The analysis phase of the framework: Stages 1-3 run in order, with a
   snapshot of every variable's sharing status taken after each stage —
   exactly the columns of the paper's Table 4.2. *)

type snapshot = Sharing.status Ir.Var_id.Map.t

type t = {
  scope : Scope_analysis.t;
  threads : Thread_analysis.t;
  points_to : Points_to.t;
  access : Access_count.t;
  after_stage1 : snapshot;
  after_stage2 : snapshot;
  after_stage3 : snapshot;
}

let snapshot (scope : Scope_analysis.t) : snapshot =
  List.fold_left
    (fun acc id ->
      let info = Scope_analysis.get scope id in
      Ir.Var_id.Map.add id (Sharing.status info.Varinfo.sharing) acc)
    Ir.Var_id.Map.empty scope.Scope_analysis.all_vars

(* The stages as separately callable steps, which the demand-driven
   session (lib/session), the only driver, runs and memoizes exactly
   once.  Stage 2 and Stage 3 refine [scope] in place, so the caller must
   force them in order; the sharing snapshot each returns is the
   corresponding Table 4.2 column. *)

let stage1 symtab =
  let scope = Scope_analysis.run symtab in
  (scope, snapshot scope)

let stage2 scope =
  let threads = Thread_analysis.run scope in
  Thread_analysis.refine_sharing scope threads;
  (threads, snapshot scope)

let stage3 symtab scope cfgs =
  let points_to = Points_to.run symtab cfgs in
  Points_to.refine_sharing scope points_to;
  Points_to.demote_unused_globals scope;
  (points_to, snapshot scope)

let status_in snap id =
  match Ir.Var_id.Map.find_opt id snap with
  | Some s -> s
  | None -> Sharing.Unknown

let shared_variables t =
  List.filter
    (fun (info : Varinfo.t) ->
      Sharing.status info.Varinfo.sharing = Sharing.Shared)
    (Scope_analysis.infos t.scope)

let is_shared t id =
  match Scope_analysis.find t.scope id with
  | Some info -> Sharing.status info.Varinfo.sharing = Sharing.Shared
  | None -> false

(* Table 4.1: information extracted per variable (post Stage 3). *)
let table_4_1 t =
  Varinfo.row_header
  :: List.map Varinfo.to_row (Scope_analysis.infos t.scope)

(* Table 4.2: sharing status after each stage. *)
let table_4_2 t =
  [ "Variable"; "Stage 1"; "Stage 2"; "Stage 3" ]
  :: List.map
       (fun id ->
         [
           id.Ir.Var_id.name;
           Sharing.status_to_string (status_in t.after_stage1 id);
           Sharing.status_to_string (status_in t.after_stage2 id);
           Sharing.status_to_string (status_in t.after_stage3 id);
         ])
       t.scope.Scope_analysis.all_vars

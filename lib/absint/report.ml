open Cfront

(* Rendering of an analysis summary: human-readable text for the terminal,
   a deterministic JSON document for golden tests and tooling, and lib/diag
   diagnostics for the undischarged obligations. *)

let buf_add = Buffer.add_string

(* ---- diagnostics ---------------------------------------------------- *)

(* [None] for a proved obligation; a warning for [Unproved], an error for
   [Out_of_bounds] — both carrying the access path, the inferred interval
   and the target region. *)
let diag_of_oblig (o : Oblig.t) =
  let target =
    match o.Oblig.o_alloc with
    | Some "RCCE_shmalloc" -> "shmalloc region"
    | Some fn -> fn ^ " region"
    | None -> "block"
  in
  let blocks =
    match o.Oblig.o_blocks with
    | [] -> ""
    | bs -> Printf.sprintf " of %s" (String.concat ", " bs)
  in
  let bound =
    match o.Oblig.o_bound with
    | Some n -> Printf.sprintf " (%d element%s)" n (if n = 1 then "" else "s")
    | None -> ""
  in
  match o.Oblig.o_status with
  | Oblig.Proved -> None
  | Oblig.Out_of_bounds ->
      Some
        (Diag.error ~loc:o.Oblig.o_loc ~code:"bounds"
           (Printf.sprintf
              "`%s' in %s is out of bounds: index %s never enters the %s%s%s"
              o.Oblig.o_path o.Oblig.o_func o.Oblig.o_index target blocks
              bound))
  | Oblig.Unproved reason ->
      Some
        (Diag.warning ~loc:o.Oblig.o_loc ~code:"bounds"
           (Printf.sprintf
              "cannot prove `%s' in %s within the %s%s%s: %s"
              o.Oblig.o_path o.Oblig.o_func target blocks bound reason))

let diags_of (s : Oblig.summary) =
  List.filter_map diag_of_oblig s.Oblig.s_obligations

(* ---- human-readable report ------------------------------------------ *)

let render_human (s : Oblig.summary) =
  let b = Buffer.create 1024 in
  let proved =
    List.length (List.filter Oblig.is_proved s.Oblig.s_obligations)
  in
  let total = List.length s.Oblig.s_obligations in
  buf_add b
    (Printf.sprintf
       "%s program: %d/%d accesses proved in bounds (interval, %d rounds)\n"
       (Oblig.mode_to_string s.Oblig.s_mode) proved total s.Oblig.s_rounds);
  List.iter
    (fun (o : Oblig.t) ->
      buf_add b
        (Printf.sprintf "  %-14s %s  %s : %s%s\n"
           ("[" ^ Oblig.status_to_string o.Oblig.o_status ^ "]")
           (Srcloc.to_string o.Oblig.o_loc) o.Oblig.o_path o.Oblig.o_index
           (match o.Oblig.o_bound with
           | Some n -> Printf.sprintf " vs [0,%d]" (n - 1)
           | None -> "")))
    s.Oblig.s_obligations;
  List.iter
    (fun (sp : Oblig.spawn_fact) ->
      buf_add b
        (Printf.sprintf "  spawn %s at %s: thread ids %s\n" sp.Oblig.sp_func
           (Srcloc.to_string sp.Oblig.sp_loc) sp.Oblig.sp_interval))
    s.Oblig.s_spawns;
  Buffer.contents b

(* ---- JSON report ----------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> buf_add b "\\\""
      | '\\' -> buf_add b "\\\\"
      | '\n' -> buf_add b "\\n"
      | c when Char.code c < 0x20 ->
          buf_add b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* One summary as a JSON object at indentation [ind] (no trailing
   newline); [render_json] stitches one or more of these — the source
   program and its translation — into the `hsmcc verify --json`
   document. *)
let render_json_run ~ind (s : Oblig.summary) =
  let b = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun l -> buf_add b (ind ^ "  " ^ l)) fmt in
  buf_add b (ind ^ "{\n");
  line "\"mode\": \"%s\",\n" (Oblig.mode_to_string s.Oblig.s_mode);
  line "\"domain\": \"interval\",\n";
  line "\"rounds\": %d,\n" s.Oblig.s_rounds;
  line "\"functions\": [%s],\n"
    (String.concat ", "
       (List.map (fun f -> "\"" ^ json_escape f ^ "\"") s.Oblig.s_functions));
  let proved =
    List.length (List.filter Oblig.is_proved s.Oblig.s_obligations)
  in
  line "\"proved\": %d,\n" proved;
  line "\"total\": %d,\n" (List.length s.Oblig.s_obligations);
  line "\"obligations\": [";
  let first = ref true in
  List.iter
    (fun (o : Oblig.t) ->
      if !first then first := false else buf_add b ",";
      buf_add b ("\n" ^ ind ^ "    { ");
      buf_add b
        (String.concat ", "
           ([ Printf.sprintf "\"line\": %d" o.Oblig.o_loc.Srcloc.line;
              Printf.sprintf "\"col\": %d" o.Oblig.o_loc.Srcloc.col;
              Printf.sprintf "\"func\": \"%s\"" (json_escape o.Oblig.o_func);
              Printf.sprintf "\"path\": \"%s\"" (json_escape o.Oblig.o_path);
              Printf.sprintf "\"kind\": \"%s\""
                (Oblig.kind_to_string o.Oblig.o_kind);
              Printf.sprintf "\"blocks\": [%s]"
                (String.concat ", "
                   (List.map
                      (fun n -> "\"" ^ json_escape n ^ "\"")
                      o.Oblig.o_blocks)) ]
           @ (match o.Oblig.o_alloc with
             | Some a -> [ Printf.sprintf "\"alloc\": \"%s\"" (json_escape a) ]
             | None -> [])
           @ [ Printf.sprintf "\"index\": \"%s\""
                 (json_escape o.Oblig.o_index) ]
           @ (match o.Oblig.o_bound with
             | Some n -> [ Printf.sprintf "\"bound\": %d" n ]
             | None -> [])
           @ [ Printf.sprintf "\"status\": \"%s\""
                 (Oblig.status_to_string o.Oblig.o_status) ]
           @
           match o.Oblig.o_status with
           | Oblig.Unproved reason ->
               [ Printf.sprintf "\"reason\": \"%s\"" (json_escape reason) ]
           | _ -> []));
      buf_add b " }")
    s.Oblig.s_obligations;
  if not !first then buf_add b ("\n" ^ ind ^ "  ");
  buf_add b "],\n";
  line "\"spawns\": [";
  let first = ref true in
  List.iter
    (fun (sp : Oblig.spawn_fact) ->
      if !first then first := false else buf_add b ",";
      buf_add b
        (Printf.sprintf
           "\n%s    { \"line\": %d, \"col\": %d, \"func\": \"%s\", \
            \"ids\": \"%s\" }"
           ind sp.Oblig.sp_loc.Srcloc.line sp.Oblig.sp_loc.Srcloc.col
           (json_escape sp.Oblig.sp_func)
           (json_escape sp.Oblig.sp_interval)))
    s.Oblig.s_spawns;
  if not !first then buf_add b ("\n" ^ ind ^ "  ");
  buf_add b ("]\n" ^ ind ^ "}");
  Buffer.contents b

let render_json ~file (runs : Oblig.summary list) =
  let b = Buffer.create 4096 in
  buf_add b "{\n";
  buf_add b (Printf.sprintf "  \"file\": \"%s\",\n" (json_escape file));
  buf_add b "  \"runs\": [\n";
  buf_add b
    (String.concat ",\n"
       (List.map (fun s -> render_json_run ~ind:"    " s) runs));
  buf_add b "\n  ]\n}\n";
  Buffer.contents b

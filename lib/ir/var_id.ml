(* Identity of a program variable.  Locals of different functions (and
   parameters) are distinct even when they share a name, so analyses key
   their maps on this type rather than on raw names. *)

type scope =
  | Global
  | Local of string   (* enclosing function *)
  | Param of string   (* enclosing function *)

type t = { name : string; scope : scope }

let global name = { name; scope = Global }
let local ~func name = { name; scope = Local func }
let param ~func name = { name; scope = Param func }

(* The order [Stdlib.compare] gives the record, without its C call: the
   name first, then the scope ([Global] < [Local] < [Param], then the
   function name), so every map keyed by a variable iterates as it
   always has. *)
let compare_scope a b =
  match a, b with
  | Global, Global -> 0
  | Local f, Local g | Param f, Param g -> String.compare f g
  | Global, (Local _ | Param _) | Local _, Param _ -> -1
  | (Local _ | Param _), Global | Param _, Local _ -> 1

let compare a b =
  let c = String.compare a.name b.name in
  if c <> 0 then c else compare_scope a.scope b.scope

let equal a b = compare a b = 0

let is_global v = v.scope = Global

let scope_function v =
  match v.scope with
  | Global -> None
  | Local f | Param f -> Some f

let to_string v =
  match v.scope with
  | Global -> v.name
  | Local f -> Printf.sprintf "%s@%s" v.name f
  | Param f -> Printf.sprintf "%s@%s(param)" v.name f

let pp fmt v = Format.pp_print_string fmt (to_string v)

module Map = Map.Make (struct
  type nonrec t = t
  let compare = compare
end)

module Set = Set.Make (struct
  type nonrec t = t
  let compare = compare
end)

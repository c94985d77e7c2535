(* Source positions for diagnostics.  A [t] names a point in the input; a
   [span] covers a region.  Line and column are 1-based. *)

type t = { file : string; line : int; col : int }

type span = { start_pos : t; end_pos : t }

let dummy = { file = "<none>"; line = 0; col = 0 }

let make ~file ~line ~col = { file; line; col }

let span a b = { start_pos = a; end_pos = b }

let to_string { file; line; col } = Printf.sprintf "%s:%d:%d" file line col

let pp fmt loc = Format.pp_print_string fmt (to_string loc)

exception Error of t * string

let error loc fmt =
  Printf.ksprintf (fun msg -> raise (Error (loc, msg))) fmt

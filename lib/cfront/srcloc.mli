(** Source positions for diagnostics. *)

type t = { file : string; line : int; col : int }
(** A point in a source file; [line] and [col] are 1-based. *)

type span = { start_pos : t; end_pos : t }
(** A contiguous region of a source file. *)

val dummy : t
(** Placeholder position for synthesized nodes. *)

val make : file:string -> line:int -> col:int -> t

val span : t -> t -> span

val to_string : t -> string
(** ["file:line:col"]. *)

val pp : Format.formatter -> t -> unit

exception Error of t * string
(** Raised by the frontend on any lexical, syntactic or semantic error. *)

val error : t -> ('a, unit, string, 'b) format4 -> 'a
(** [error loc fmt ...] raises {!Error} with a formatted message. *)

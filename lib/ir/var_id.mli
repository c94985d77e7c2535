(** Identity of a program variable.

    Locals of different functions (and parameters) are distinct even when
    they share a name, so analyses key their maps on this type rather than
    on raw names. *)

type scope =
  | Global
  | Local of string  (** enclosing function *)
  | Param of string  (** enclosing function *)

type t = { name : string; scope : scope }

val global : string -> t
val local : func:string -> string -> t
val param : func:string -> string -> t

val compare : t -> t -> int
(** The name ([String.compare]), then the scope: [Global] < [Local] <
    [Param], then the function name.  The order [Stdlib.compare] gives,
    without the polymorphic call. *)

val equal : t -> t -> bool

val is_global : t -> bool

val scope_function : t -> string option
(** Enclosing function for locals and parameters; [None] for globals. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

module Map : Map.S with type key = t
module Set : Set.S with type elt = t

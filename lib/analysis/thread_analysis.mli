open Cfront

(** Stage 2: inter-thread analysis (the paper's Algorithm 1).

    Discovers every [pthread_create] site and classifies each variable as
    appearing in multiple threads, a single thread, or no thread. *)

type presence = Not_in_thread | In_single_thread | In_multiple_threads

type site = {
  thread_func : string;     (** 3rd argument of [pthread_create] *)
  creator : string;         (** function containing the call *)
  in_loop : bool;
  loop_trip : int option;
      (** trip count when the loop matches [for (v = 0; v < N; v++)] *)
  arg : Ast.expr option;    (** 4th argument; [None] when NULL *)
  arg_is_thread_id : bool;  (** the argument is the create-loop counter *)
  call_loc : Srcloc.t;
}

type t = {
  sites : site list;
  thread_funcs : string list;  (** distinct, source order *)
  presence : presence Ir.Var_id.Map.t;
}

val sites : Ast.program -> site list
(** Every [pthread_create] call of the program, in source order.  Reads
    the program's function bodies only. *)

val run : Scope_analysis.t -> t
(** Reads the sites of the scope table's program and, for Algorithm 1,
    the table's variables and the functions each is used or defined in
    (Stage 1's results). *)

val presence : t -> Ir.Var_id.t -> presence

val is_thread_func : t -> string -> bool

val static_thread_count : t -> int option
(** Total threads created, when every site's multiplicity is statically
    known. *)

val refine_sharing : Scope_analysis.t -> t -> unit
(** Stage-2 refinement: non-globals become Private, globals keep Shared
    (Table 4.2, third column). *)

val presence_to_string : presence -> string
(** The strings returned by the paper's Algorithm 1. *)

val loop_bounds : Ast.stmt -> (string * int) option
(** [(counter, trip)] for loops shaped [for (v = 0; v < N; v++)]. *)

val func_name_of_arg : Ast.expr -> string option
(** Function name denoted by [pthread_create]'s 3rd argument (possibly
    behind casts or address-of). *)

(** Plain-text bar charts for the experiment reports; tables are
    {!Obs.render_table}. *)

val bar_chart : ?width:int -> ?unit:string -> (string * float) list -> string
(** One horizontal bar per (label, value), scaled to the maximum. *)

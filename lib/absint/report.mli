(** Rendering of an analysis summary: [lib/diag] diagnostics for the
    undischarged obligations, a human-readable report, and the
    deterministic JSON document behind [hsmcc verify --json]. *)

val diags_of : Oblig.summary -> Diag.t list

val render_human : Oblig.summary -> string

val render_json : file:string -> Oblig.summary list -> string
(** The [hsmcc verify --json] document: the CLI-visible [file] plus one
    run object per analyzed generation (source, then translation).
    Field order is fixed, so golden tests may byte-compare. *)

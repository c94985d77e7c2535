(** Forward dataflow solver over a {!Cfg}. *)

module type DOMAIN = sig
  type t

  val bottom : t
  (** State for unreached program points. *)

  val equal : t -> t -> bool

  val join : t -> t -> t
  (** Least upper bound at control-flow merges; must be monotone for the
      solver to terminate. *)
end

module type S = sig
  type fact

  type result = { in_facts : fact array; out_facts : fact array }
  (** Facts indexed by {!Cfg.node} id, before and after each node. *)

  val solve :
    ?widen:(fact -> fact -> fact) ->
    ?branch:(Cfg.node -> Cfront.Ast.expr -> bool -> fact -> fact) ->
    Cfg.t ->
    init:fact ->
    transfer:(Cfg.node -> fact -> fact) ->
    result
  (** Reverse post-order sweeps to a fixed point; [init] is the entry
      fact.  With neither option, a node's input is the join of its
      predecessors' outputs.
      - [widen old next] over-approximates [join old next], and widening
        along a growing chain must stabilize.  Given, the input of a
        target of a retreating edge (a loop head) is widened against its
        previous value, so infinite-height domains such as intervals
        terminate.
      - [branch node cond outcome fact] refines the fact flowing along a
        condition's out-edge of known polarity ({!Cfg.edge_polarity});
        an edge of either polarity carries the join of both
        refinements. *)
end

module Forward (D : DOMAIN) : S with type fact = D.t

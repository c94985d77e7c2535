(* Forward dataflow solver: reverse post-order sweeps over a CFG to a
   fixed point, with optional widening at loop heads and branch
   refinement along condition out-edges. *)

module type DOMAIN = sig
  type t

  val bottom : t
  (** State for unreached program points. *)

  val equal : t -> t -> bool

  val join : t -> t -> t
  (** Least upper bound at control-flow merges. *)
end

module type S = sig
  type fact

  type result = { in_facts : fact array; out_facts : fact array }

  val solve :
    ?widen:(fact -> fact -> fact) ->
    ?branch:(Cfg.node -> Cfront.Ast.expr -> bool -> fact -> fact) ->
    Cfg.t ->
    init:fact ->
    transfer:(Cfg.node -> fact -> fact) ->
    result
end

module Forward (D : DOMAIN) : S with type fact = D.t = struct
  type fact = D.t

  type result = { in_facts : fact array; out_facts : fact array }

  let solve ?widen ?branch (cfg : Cfg.t) ~init ~transfer =
    let n = Cfg.length cfg in
    let in_facts = Array.make n D.bottom in
    let out_facts = Array.make n D.bottom in
    in_facts.(cfg.Cfg.entry) <- init;
    let order = Array.of_list (Cfg.reverse_postorder cfg) in
    (* Under [widen], the fact entering a target of a retreating edge (a
       loop head in reverse post-order) is widened against its previous
       value instead of replacing it. *)
    let loop_head =
      match widen with
      | None -> [||]
      | Some _ ->
          let rpo_index = Array.make n max_int in
          Array.iteri (fun i id -> rpo_index.(id) <- i) order;
          let loop_head = Array.make n false in
          Array.iter
            (fun (nd : Cfg.node) ->
              List.iter
                (fun s ->
                  if rpo_index.(s) <> max_int
                     && rpo_index.(s) <= rpo_index.(nd.Cfg.id)
                  then loop_head.(s) <- true)
                nd.Cfg.succs)
            cfg.Cfg.nodes;
          loop_head
    in
    (* Fact carried by the edge [p -> id]: the out-fact of [p], refined by
       the branch outcome when [p] is a condition and a refiner is given. *)
    let edge_fact p id =
      let o = out_facts.(p) in
      match branch with
      | None -> o
      | Some refine -> begin
          match (Cfg.node cfg p).Cfg.kind with
          | Cfg.Condition e -> begin
              match Cfg.edge_polarity cfg ~src:p ~dst:id with
              | Cfg.True_branch -> refine (Cfg.node cfg p) e true o
              | Cfg.False_branch -> refine (Cfg.node cfg p) e false o
              | Cfg.Either ->
                  D.join
                    (refine (Cfg.node cfg p) e true o)
                    (refine (Cfg.node cfg p) e false o)
            end
          | _ -> o
        end
    in
    let rec join_edges id acc = function
      | [] -> acc
      | p :: preds -> join_edges id (D.join acc (edge_fact p id)) preds
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun id ->
          let node = Cfg.node cfg id in
          let input =
            if id = cfg.Cfg.entry then init
            else join_edges id D.bottom node.Cfg.preds
          in
          let input =
            match widen with
            | Some widen when loop_head.(id) ->
                widen in_facts.(id) (D.join in_facts.(id) input)
            | _ -> input
          in
          let output = transfer node input in
          if
            (not (D.equal input in_facts.(id)))
            || not (D.equal output out_facts.(id))
          then begin
            in_facts.(id) <- input;
            out_facts.(id) <- output;
            changed := true
          end)
        order
    done;
    { in_facts; out_facts }
end

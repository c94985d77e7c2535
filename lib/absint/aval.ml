(* Abstract values and environments over intervals.

   A value carries three facets:
   - [num]: the numeric component (interval);
   - [ptr]: the points-to component — the set of storage blocks the value
     may address, or [Ptop] when unknown;
   - [tid]: whether the value is a pure copy of the enclosing thread's
     identifier (spawn argument or [RCCE_ue()] result).  Arithmetic kills
     the flag; copies and casts keep it.  Thread-extent facts for the
     sharing lattice are derived from it. *)

module VMap = Ir.Var_id.Map
module VSet = Ir.Var_id.Set

type ptr = Pbot | Pblocks of VSet.t | Ptop

type t = { num : Itv.t; ptr : ptr; tid : bool }

let bottom = { num = Itv.bottom; ptr = Pbot; tid = false }
let top = { num = Itv.top; ptr = Ptop; tid = false }

let of_num ?(tid = false) n = { num = n; ptr = Pbot; tid }
let of_blocks bs = { num = Itv.top; ptr = Pblocks bs; tid = false }
let null = { num = Itv.const 0; ptr = Pbot; tid = false }

let ptr_join a b =
  match (a, b) with
  | Ptop, _ | _, Ptop -> Ptop
  | Pbot, x | x, Pbot -> x
  | Pblocks s1, Pblocks s2 -> Pblocks (VSet.union s1 s2)

let ptr_equal a b =
  match (a, b) with
  | Pbot, Pbot | Ptop, Ptop -> true
  | Pblocks s1, Pblocks s2 -> VSet.equal s1 s2
  | _ -> false

let join a b =
  { num = Itv.join a.num b.num; ptr = ptr_join a.ptr b.ptr;
    tid = a.tid && b.tid }

(* Block sets are finite (one per program variable), so joining the
   pointer facet is already a terminating widening. *)
let widen old next =
  { num = Itv.widen old.num (Itv.join old.num next.num);
    ptr = ptr_join old.ptr next.ptr;
    tid = old.tid && next.tid }

let equal a b =
  Itv.equal a.num b.num && ptr_equal a.ptr b.ptr && a.tid = b.tid

let is_top v = equal v top

(* Environments: local variables of the function under analysis.  A
   missing binding means top (uninitialized storage), so joins keep only
   keys present on both sides and drop any binding that reaches top. *)

type env = Bot | Env of t VMap.t

let env_empty = Env VMap.empty
let env_is_bot e = e = Bot

let env_lookup e v =
  match e with
  | Bot -> bottom
  | Env m -> ( match VMap.find_opt v m with Some x -> x | None -> top)

let env_update e v x =
  match e with
  | Bot -> Bot
  | Env m -> if is_top x then Env (VMap.remove v m) else Env (VMap.add v x m)

let env_merge f a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Env m1, Env m2 ->
      Env
        (VMap.merge
           (fun _ x y ->
             match (x, y) with
             | Some x, Some y ->
                 let r = f x y in
                 if is_top r then None else Some r
             | _ -> None)
           m1 m2)

let env_join = env_merge join
let env_widen old next = env_merge widen old next

let env_equal a b =
  match (a, b) with
  | Bot, Bot -> true
  | Bot, _ | _, Bot -> false
  | Env m1, Env m2 -> VMap.equal equal m1 m2

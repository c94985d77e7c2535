open Cfront

type bound = Ninf | Fin of int | Pinf

type t = Bot | Itv of bound * bound

let bottom = Bot
let top = Itv (Ninf, Pinf)

let is_bottom v = v = Bot

let const n = Itv (Fin n, Fin n)
let range lo hi = if lo > hi then Bot else Itv (Fin lo, Fin hi)

(* Bound arithmetic.  [add_b]/[mul_b] saturate: a finite result that
   overflows the native integer is replaced by the matching infinity. *)

let bcmp a b =
  match (a, b) with
  | Ninf, Ninf | Pinf, Pinf -> 0
  | Ninf, _ -> -1
  | _, Ninf -> 1
  | Pinf, _ -> 1
  | _, Pinf -> -1
  | Fin x, Fin y -> compare x y

let bmin a b = if bcmp a b <= 0 then a else b
let bmax a b = if bcmp a b >= 0 then a else b

let add_b a b =
  match (a, b) with
  | Ninf, Pinf | Pinf, Ninf -> invalid_arg "Itv.add_b"
  | Ninf, _ | _, Ninf -> Ninf
  | Pinf, _ | _, Pinf -> Pinf
  | Fin x, Fin y ->
      let s = x + y in
      if x > 0 && y > 0 && s < 0 then Pinf
      else if x < 0 && y < 0 && s >= 0 then Ninf
      else Fin s

let neg_b = function Ninf -> Pinf | Pinf -> Ninf | Fin x -> Fin (-x)

let mul_b a b =
  let sign = function
    | Ninf -> -1
    | Pinf -> 1
    | Fin x -> compare x 0
  in
  match (a, b) with
  | Fin 0, _ | _, Fin 0 -> Fin 0
  | Fin x, Fin y ->
      let p = x * y in
      if p / y <> x then if sign a * sign b > 0 then Pinf else Ninf
      else Fin p
  | _ -> if sign a * sign b > 0 then Pinf else Ninf

let mk lo hi = if bcmp lo hi > 0 then Bot else Itv (lo, hi)

let equal a b = a = b

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Itv (l1, h1), Itv (l2, h2) -> Itv (bmin l1 l2, bmax h1 h2)

let meet a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Itv (l1, h1), Itv (l2, h2) -> mk (bmax l1 l2) (bmin h1 h2)

let widen old next =
  match (old, next) with
  | Bot, x -> x
  | x, Bot -> x
  | Itv (l1, h1), Itv (l2, h2) ->
      let lo = if bcmp l2 l1 < 0 then Ninf else l1 in
      let hi = if bcmp h2 h1 > 0 then Pinf else h1 in
      Itv (lo, hi)

let contained_in v ~lo ~hi =
  match v with
  | Bot -> true
  | Itv (l, h) -> bcmp (Fin lo) l <= 0 && bcmp h (Fin hi) <= 0

let disjoint_from v ~lo ~hi = meet v (range lo hi) = Bot

let singleton = function
  | Itv (Fin a, Fin b) when a = b -> Some a
  | _ -> None

let neg = function
  | Bot -> Bot
  | Itv (l, h) -> Itv (neg_b h, neg_b l)

let bnot v =
  (* ~x = -x - 1 *)
  match neg v with
  | Bot -> Bot
  | Itv (l, h) -> Itv (add_b l (Fin (-1)), add_b h (Fin (-1)))

let lognot = function
  | Bot -> Bot
  | Itv (l, h) as v ->
      if l = Fin 0 && h = Fin 0 then const 1
      else if meet v (const 0) = Bot then const 0
      else range 0 1

let filter_nonzero v =
  match v with
  | Itv (Fin 0, Fin 0) -> Bot
  | Itv (Fin 0, h) -> mk (Fin 1) h
  | Itv (l, Fin 0) -> mk l (Fin (-1))
  | v -> v

let filter_zero v = meet v (const 0)

let add a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Itv (l1, h1), Itv (l2, h2) -> Itv (add_b l1 l2, add_b h1 h2)

let sub a b = add a (neg b)

let mul a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Itv (l1, h1), Itv (l2, h2) ->
      let c = [ mul_b l1 l2; mul_b l1 h2; mul_b h1 l2; mul_b h1 h2 ] in
      Itv (List.fold_left bmin Pinf c, List.fold_left bmax Ninf c)

(* Truncated division and remainder are only modelled for a divisor that is
   strictly positive (the common case: literal divisors); anything else
   goes to top — dividing by a range containing zero is undefined anyway. *)
let div a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Itv (l1, h1), Itv (l2, h2) ->
      if bcmp l2 (Fin 1) < 0 then top
      else
        let div_b x y =
          match (x, y) with
          | Ninf, _ -> Ninf
          | Pinf, _ -> Pinf
          | Fin v, Fin d -> Fin (v / d)
          | Fin v, Pinf -> Fin (if v = min_int then -1 else 0)
          | _, Ninf -> assert false
        in
        let c = [ div_b l1 l2; div_b l1 h2; div_b h1 l2; div_b h1 h2 ] in
        Itv (List.fold_left bmin Pinf c, List.fold_left bmax Ninf c)

let rem a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Itv (l1, h1), Itv (_, h2) as _ab -> begin
      match b with
      | Itv (l2, _) when bcmp l2 (Fin 1) >= 0 -> begin
          match h2 with
          | Fin d ->
              if bcmp l1 (Fin 0) >= 0 then
                (* nonnegative dividend: 0 <= a % b <= min(a, d-1) *)
                Itv (Fin 0, bmin h1 (Fin (d - 1)))
              else Itv (Fin (-(d - 1)), Fin (d - 1))
          | _ -> if bcmp l1 (Fin 0) >= 0 then Itv (Fin 0, h1) else top
        end
      | _ -> top
    end

(* x & m with m >= 0 lands in [0, m] in two's complement whatever the sign
   of x, so a nonnegative side bounds the result on its own. *)
let band a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Itv (l1, h1), Itv (l2, h2) ->
      let nonneg l = bcmp l (Fin 0) >= 0 in
      if nonneg l1 && nonneg l2 then Itv (Fin 0, bmin h1 h2)
      else if nonneg l1 then Itv (Fin 0, h1)
      else if nonneg l2 then Itv (Fin 0, h2)
      else top

(* | and ^ of nonnegatives stay below the next power of two of the larger
   operand. *)
let pow2_ceil n =
  let rec go p = if p > n then p - 1 else go (p * 2) in
  if n < 0 then max_int else go 1

let bor a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Itv (l1, h1), Itv (l2, h2) -> begin
      match (l1, l2, h1, h2) with
      | Fin x1, Fin x2, Fin y1, Fin y2 when x1 >= 0 && x2 >= 0 ->
          Itv (Fin 0, Fin (pow2_ceil (max y1 y2)))
      | _ -> top
    end

let bxor = bor

let shl a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Itv (l1, _), Itv (l2, _) -> begin
      match (a, b) with
      | Itv (_, Fin _), Itv (_, Fin h2)
        when bcmp l1 (Fin 0) >= 0 && bcmp l2 (Fin 0) >= 0 && h2 < 62 ->
          mul a (Itv (Fin 1, Fin (1 lsl h2)))
      | _ -> top
    end

let shr a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Itv (l1, h1), Itv (l2, _) ->
      if bcmp l1 (Fin 0) >= 0 && bcmp l2 (Fin 0) >= 0 then Itv (Fin 0, h1)
      else top

(* Comparisons decide to a constant when the interval endpoints settle the
   outcome; otherwise [0, 1]. *)
let cmp_result op a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Itv (l1, h1), Itv (l2, h2) -> begin
      let always, never =
        match (op : Ast.binop) with
        | Ast.Lt -> (bcmp h1 l2 < 0, bcmp l1 h2 >= 0)
        | Ast.Le -> (bcmp h1 l2 <= 0, bcmp l1 h2 > 0)
        | Ast.Gt -> (bcmp l1 h2 > 0, bcmp h1 l2 <= 0)
        | Ast.Ge -> (bcmp l1 h2 >= 0, bcmp h1 l2 < 0)
        | Ast.Eq -> (
            (match (singleton a, singleton b) with
            | Some x, Some y -> x = y
            | _ -> false),
            meet a b = Bot )
        | Ast.Ne -> (
            meet a b = Bot,
            match (singleton a, singleton b) with
            | Some x, Some y -> x = y
            | _ -> false )
        | _ -> (false, false)
      in
      if always then const 1 else if never then const 0 else range 0 1
    end

let logical_result a b ~conj =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | _ ->
      let t v = meet v (const 0) = Bot in
      let f v = equal v (const 0) in
      if conj then
        if t a && t b then const 1
        else if f a || f b then const 0
        else range 0 1
      else if t a || t b then const 1
      else if f a && f b then const 0
      else range 0 1

let binop (op : Ast.binop) a b =
  match op with
  | Ast.Add -> add a b
  | Ast.Sub -> sub a b
  | Ast.Mul -> mul a b
  | Ast.Div -> div a b
  | Ast.Mod -> rem a b
  | Ast.Band -> band a b
  | Ast.Bor -> bor a b
  | Ast.Bxor -> bxor a b
  | Ast.Shl -> shl a b
  | Ast.Shr -> shr a b
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge -> cmp_result op a b
  | Ast.Land -> logical_result a b ~conj:true
  | Ast.Lor -> logical_result a b ~conj:false

let filter (op : Ast.binop) a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | _, Itv (l2, h2) -> begin
      match op with
      | Ast.Lt -> meet a (mk Ninf (add_b h2 (Fin (-1))))
      | Ast.Le -> meet a (mk Ninf h2)
      | Ast.Gt -> meet a (mk (add_b l2 (Fin 1)) Pinf)
      | Ast.Ge -> meet a (mk l2 Pinf)
      | Ast.Eq -> meet a b
      | Ast.Ne -> begin
          match (a, singleton b) with
          | Itv (l1, h1), Some n ->
              if l1 = Fin n && h1 = Fin n then Bot
              else if l1 = Fin n then mk (Fin (n + 1)) h1
              else if h1 = Fin n then mk l1 (Fin (n - 1))
              else a
          | _ -> a
        end
      | _ -> a
    end

let to_string = function
  | Bot -> "bot"
  | Itv (l, h) ->
      let b = function
        | Ninf -> "-inf"
        | Pinf -> "+inf"
        | Fin x -> string_of_int x
      in
      Printf.sprintf "[%s,%s]" (b l) (b h)

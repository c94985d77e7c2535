(* splitmix64 (Steele, Lea & Flood 2014): a tiny, statistically solid
   generator whose entire state is one int64.  Chosen over
   [Stdlib.Random] so a corpus regenerated years later from the same
   seed is byte-identical. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* The next raw 64-bit word of the stream. *)
let bits64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let int t n =
  if n <= 0 then invalid_arg "Rng.int";
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

let range t lo hi =
  if hi < lo then invalid_arg "Rng.range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (bits64 t) 1L = 1L

let chance t p = if p >= 1.0 then true else int t 1_000_000 < int_of_float (p *. 1_000_000.)

let pick t = function
  | [] -> invalid_arg "Rng.pick"
  | xs -> List.nth xs (int t (List.length xs))

let weighted t choices =
  let total = List.fold_left (fun a (w, _) -> a + w) 0 choices in
  if total <= 0 then invalid_arg "Rng.weighted";
  let rec go n = function
    | [] -> invalid_arg "Rng.weighted"
    | (w, x) :: rest -> if n < w then x else go (n - w) rest
  in
  go (int t total) choices

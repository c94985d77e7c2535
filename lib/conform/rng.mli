(** A small self-contained splitmix64 PRNG.

    The conformance harness promises byte-identical corpora for a given
    seed across runs and machines, so it carries its own generator
    instead of depending on [Stdlib.Random]'s evolving algorithms.  All
    draws reduce the same 64-bit stream, making every generated program
    a pure function of its integer seed. *)

type t

val create : int -> t
(** A fresh stream seeded from the given integer. *)

val bits64 : t -> int64
(** The next raw 64-bit word of the stream. *)

val int : t -> int -> int
(** [int t n] draws uniformly from [0 .. n-1].  [n] must be positive. *)

val range : t -> int -> int -> int
(** [range t lo hi] draws uniformly from [lo .. hi] inclusive. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val pick : t -> 'a list -> 'a
(** A uniform element of a non-empty list. *)

val weighted : t -> (int * 'a) list -> 'a
(** An element drawn with the given relative integer weights (all
    weights must be positive, the list non-empty). *)

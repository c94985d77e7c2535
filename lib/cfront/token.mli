(** Lexical tokens of the supported C subset. *)

type keyword =
  | Kvoid | Kchar | Kint | Klong | Kshort | Kunsigned | Ksigned
  | Kfloat | Kdouble
  | Kif | Kelse | Kwhile | Kdo | Kfor | Kreturn | Kbreak | Kcontinue
  | Ksizeof | Kstatic | Kextern | Kconst | Kvolatile

type t =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | Char_lit of char
  | Kw of keyword
  | Plus | Minus | Star | Slash | Percent
  | Plus_plus | Minus_minus
  | Eq_eq | Bang_eq | Lt | Gt | Le | Ge
  | Amp_amp | Bar_bar | Bang
  | Amp | Bar | Caret | Tilde | Lt_lt | Gt_gt
  | Eq | Plus_eq | Minus_eq | Star_eq | Slash_eq | Percent_eq
  | Amp_eq | Bar_eq | Caret_eq | Lt_lt_eq | Gt_gt_eq
  | Question | Colon | Semi | Comma
  | Lparen | Rparen | Lbracket | Rbracket | Lbrace | Rbrace
  | Arrow | Dot
  | Eof

val keyword_of_string : string -> keyword option

val to_string : t -> string
(** Concrete syntax of the token (literals are re-quoted). *)

val equal : t -> t -> bool

type located = { tok : t; loc : Srcloc.t }

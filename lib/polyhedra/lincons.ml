module Affine = Dp_affine.Affine

type t =
  | Ge of Affine.t
  | Eq of Affine.t
  | Stride of { expr : Affine.t; modulus : int }

let ge e = Ge e
let le a b = Ge (Affine.sub b a)
let eq a b = Eq (Affine.sub a b)

let stride expr modulus =
  if modulus < 1 then invalid_arg "Lincons.stride: modulus must be positive";
  Stride { expr; modulus }

let vars = function Ge e | Eq e | Stride { expr = e; _ } -> Affine.vars e

let subst v repl = function
  | Ge e -> Ge (Affine.subst v repl e)
  | Eq e -> Eq (Affine.subst v repl e)
  | Stride { expr; modulus } -> Stride { expr = Affine.subst v repl expr; modulus }

let eval env = function
  | Ge e -> Affine.eval env e >= 0
  | Eq e -> Affine.eval env e = 0
  | Stride { expr; modulus } ->
      let v = Affine.eval env expr in
      ((v mod modulus) + modulus) mod modulus = 0

let is_trivially_true = function
  | Ge e -> Affine.is_const e && Affine.constant e >= 0
  | Eq e -> Affine.is_const e && Affine.constant e = 0
  | Stride { modulus = 1; _ } -> true
  | Stride { expr; modulus } ->
      Affine.is_const expr && Affine.constant expr mod modulus = 0

let is_trivially_false = function
  | Ge e -> Affine.is_const e && Affine.constant e < 0
  | Eq e -> Affine.is_const e && Affine.constant e <> 0
  | Stride { expr; modulus } ->
      Affine.is_const expr
      && ((Affine.constant expr mod modulus) + modulus) mod modulus <> 0

let pp ppf = function
  | Ge e -> Format.fprintf ppf "%a >= 0" Affine.pp e
  | Eq e -> Format.fprintf ppf "%a = 0" Affine.pp e
  | Stride { expr; modulus } -> Format.fprintf ppf "%a = 0 (mod %d)" Affine.pp expr modulus

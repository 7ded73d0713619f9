type t = { num : int; den : int }

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let make num den =
  if den = 0 then raise Division_by_zero
  else begin
    let s = if den < 0 then -1 else 1 in
    let num = s * num and den = s * den in
    let g = gcd num den in
    if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }
  end

let of_int n = { num = n; den = 1 }

let zero = of_int 0
let one = of_int 1

let num t = t.num
let den t = t.den

let add a b = make ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)
let sub a b = make ((a.num * b.den) - (b.num * a.den)) (a.den * b.den)
let mul a b = make (a.num * b.num) (a.den * b.den)
let div a b = if b.num = 0 then raise Division_by_zero else make (a.num * b.den) (a.den * b.num)
let neg a = { a with num = -a.num }
let abs a = { a with num = Stdlib.abs a.num }
let inv a = if a.num = 0 then raise Division_by_zero else make a.den a.num

let compare a b = Stdlib.compare (a.num * b.den) (b.num * a.den)
let equal a b = a.num = b.num && a.den = b.den
let sign a = Stdlib.compare a.num 0
let is_int a = a.den = 1

(* True floor: OCaml's / truncates toward zero, adjust for negatives. *)
let floor a =
  let q = a.num / a.den and r = a.num mod a.den in
  if r < 0 then q - 1 else q

let ceil a =
  let q = a.num / a.den and r = a.num mod a.den in
  if r > 0 then q + 1 else q

let to_float a = float_of_int a.num /. float_of_int a.den

let pp ppf a =
  if a.den = 1 then Format.fprintf ppf "%d" a.num
  else Format.fprintf ppf "%d/%d" a.num a.den

let to_string a = Format.asprintf "%a" pp a

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
let ( = ) = equal

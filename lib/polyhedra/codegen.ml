module Ir = Dp_ir.Ir
module Affine = Dp_affine.Affine
module Rat = Dp_util.Rat

type bound = { expr : Affine.t; div : int }

type code =
  | For of {
      var : string;
      lo : bound list;
      hi : bound list;
      step : int;
      align : Affine.t option;
      body : code list;
    }
  | Guard of Lincons.t list * code list
  | Exec of string

(* Split the constraints of projection [p] relevant to variable [vk]:
   symbolic lower/upper bounds, a unit-coefficient stride (if any), and
   residual guards. *)
let bounds_for p vk =
  let lowers = ref [] and uppers = ref [] and strides = ref [] and guards = ref [] in
  let handle_ineq e =
    let c = Affine.coeff e vk in
    if c > 0 then
      (* c*vk + r >= 0   =>   vk >= ceil(-r / c) *)
      lowers := { expr = Affine.neg (Affine.sub e (Affine.term c vk)); div = c } :: !lowers
    else if c < 0 then
      uppers := { expr = Affine.sub e (Affine.term c vk); div = -c } :: !uppers
  in
  List.iter
    (function
      | Lincons.Ge e -> if Affine.coeff e vk <> 0 then handle_ineq e
      | Lincons.Eq e ->
          if Affine.coeff e vk <> 0 then begin
            handle_ineq e;
            handle_ineq (Affine.neg e)
          end
      | Lincons.Stride { expr; modulus } ->
          let c = Affine.coeff expr vk in
          if c = 1 then strides := (expr, modulus) :: !strides
          else if c <> 0 then guards := Lincons.Stride { expr; modulus } :: !guards)
    p.Iset.cons;
  (!lowers, !uppers, !strides, !guards)

let projection_chain_of t =
  let vars = Array.of_list t.Iset.vars in
  let n = Array.length vars in
  let chain = Array.make (max n 1) (Iset.simplify t) in
  if n > 0 then begin
    chain.(n - 1) <- Iset.simplify t;
    for k = n - 2 downto 0 do
      chain.(k) <- Iset.eliminate vars.(k + 1) chain.(k + 1)
    done
  end;
  (vars, chain)

let scan t ~payload =
  let vars, chain = projection_chain_of t in
  let n = Array.length vars in
  if Iset.definitely_empty t then []
  else begin
    let rec level k =
      if k = n then [ Exec payload ]
      else begin
        let vk = vars.(k) in
        let lowers, uppers, strides, guards = bounds_for chain.(k) vk in
        if lowers = [] then raise (Iset.Unbounded vk);
        if uppers = [] then raise (Iset.Unbounded vk);
        let step, align, extra_guards =
          match strides with
          | [] -> (1, None, [])
          | (expr, modulus) :: rest ->
              (* vk + r = 0 (mod m)  =>  vk = -r (mod m).  One stride goes
                 in the loop header, any others become guards. *)
              let r = Affine.sub expr (Affine.var vk) in
              ( modulus,
                Some (Affine.neg r),
                List.map (fun (expr, modulus) -> Lincons.Stride { expr; modulus }) rest )
        in
        let body = level (k + 1) in
        let body =
          match guards @ extra_guards with [] -> body | gs -> [ Guard (gs, body) ]
        in
        [ For { var = vk; lo = lowers; hi = uppers; step; align; body } ]
      end
    in
    level 0
  end

(* --- pretty-printing --- *)

let pp_bound ~ceil ppf b =
  if b.div = 1 then Affine.pp ppf b.expr
  else Format.fprintf ppf "%s(%a, %d)" (if ceil then "ceild" else "floord") Affine.pp b.expr b.div

let pp_bounds ~ceil ~combiner ppf = function
  | [ b ] -> pp_bound ~ceil ppf b
  | bs ->
      Format.fprintf ppf "%s(%a)" combiner
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (pp_bound ~ceil))
        bs

let rec pp_item indent ppf item =
  let pad = String.make indent ' ' in
  match item with
  | For f ->
      Format.fprintf ppf "%sfor %s = %a .. %a" pad f.var
        (pp_bounds ~ceil:true ~combiner:"max")
        f.lo
        (pp_bounds ~ceil:false ~combiner:"min")
        f.hi;
      if f.step <> 1 then begin
        Format.fprintf ppf " step %d" f.step;
        match f.align with
        | Some a -> Format.fprintf ppf " (with %s = %a mod %d)" f.var Affine.pp a f.step
        | None -> ()
      end;
      Format.fprintf ppf "@,";
      List.iter (pp_item (indent + 2) ppf) f.body
  | Guard (cs, body) ->
      Format.fprintf ppf "%sif (%a)@," pad
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " && ")
           Lincons.pp)
        cs;
      List.iter (pp_item (indent + 2) ppf) body
  | Exec s -> Format.fprintf ppf "%s%s;@," pad s

let pp ppf items =
  Format.fprintf ppf "@[<v>";
  List.iter (pp_item 0 ppf) items;
  Format.fprintf ppf "@]"

(* --- reference interpreter --- *)

let points_of_code items env0 =
  let acc = ref [] in
  let rec run env stack items =
    List.iter
      (fun item ->
        match item with
        | Exec _ -> acc := Array.of_list (List.rev stack) :: !acc
        | Guard (cs, body) ->
            if List.for_all (Lincons.eval env) cs then run env stack body
        | For f ->
            let eval_bound ~ceil b =
              let v = Affine.eval env b.expr in
              if ceil then Rat.ceil (Rat.make v b.div) else Rat.floor (Rat.make v b.div)
            in
            let lo =
              List.fold_left (fun acc b -> max acc (eval_bound ~ceil:true b)) min_int f.lo
            in
            let hi =
              List.fold_left (fun acc b -> min acc (eval_bound ~ceil:false b)) max_int f.hi
            in
            let first =
              match f.align with
              | None -> lo
              | Some a ->
                  let r =
                    let m = f.step in
                    let av = Affine.eval env a in
                    ((av mod m) + m) mod m
                  in
                  let base = lo + (((r - lo) mod f.step + f.step) mod f.step) in
                  base
            in
            let v = ref first in
            while !v <= hi do
              let value = !v in
              let env' x = if x = f.var then value else env x in
              run env' (value :: stack) f.body;
              v := !v + f.step
            done)
      items
  in
  run env0 [] items;
  List.rev !acc

module Ir = Dp_ir.Ir
module Affine = Dp_affine.Affine
module Rat = Dp_util.Rat

type t = { vars : string list; cons : Lincons.t list }

let check_vars vars cons =
  let module S = Set.Make (String) in
  let vs = S.of_list vars in
  if S.cardinal vs <> List.length vars then invalid_arg "Iset.make: duplicate variables";
  List.iter
    (fun c ->
      List.iter
        (fun v ->
          if not (S.mem v vs) then
            invalid_arg (Printf.sprintf "Iset.make: constraint mentions unknown variable %s" v))
        (Lincons.vars c))
    cons

let make vars cons =
  check_vars vars cons;
  { vars; cons }

let universe vars = make vars []
let constrain t extra = make t.vars (t.cons @ extra)

let intersect a b =
  if a.vars <> b.vars then invalid_arg "Iset.intersect: variable lists differ";
  { a with cons = a.cons @ b.cons }

let rename_var t old_name new_name =
  if old_name = new_name then t
  else
    make
      (List.map (fun v -> if v = old_name then new_name else v) t.vars)
      (List.map (Lincons.subst old_name (Affine.var new_name)) t.cons)

let of_nest (n : Ir.nest) =
  let vars = Ir.nest_indices n in
  let cons =
    List.concat_map
      (fun (l : Ir.loop) ->
        [ Lincons.le l.lo (Affine.var l.index); Lincons.le (Affine.var l.index) l.hi ])
      n.loops
  in
  make vars cons

let env_of t point =
  let arr = Array.of_list t.vars in
  fun v ->
    let rec find i =
      if i >= Array.length arr then raise Not_found
      else if arr.(i) = v then point.(i)
      else find (i + 1)
    in
    find 0

let contains t point =
  if Array.length point <> List.length t.vars then
    invalid_arg "Iset.contains: wrong dimensionality";
  List.for_all (Lincons.eval (env_of t point)) t.cons

(* An obviously empty set over the same variables. *)
let empty_canon vars = { vars; cons = [ Lincons.Ge (Affine.const (-1)) ] }

let simplify t =
  if List.exists Lincons.is_trivially_false t.cons then empty_canon t.vars
  else
    {
      t with
      cons =
        Dp_util.Listx.uniq ( = )
          (List.filter (fun c -> not (Lincons.is_trivially_true c)) t.cons);
    }

(* --- Fourier-Motzkin projection --- *)

let eliminate v t =
  let cons = (simplify t).cons in
  (* Prefer substitution through a unit-coefficient equality: exact. *)
  let unit_eq =
    List.find_opt
      (function
        | Lincons.Eq e -> abs (Affine.coeff e v) = 1
        | Lincons.Ge _ | Lincons.Stride _ -> false)
      cons
  in
  match unit_eq with
  | Some (Lincons.Eq e) ->
      let c = Affine.coeff e v in
      (* c*v + r = 0  =>  v = -r/c with c = +-1. *)
      let r = Affine.sub e (Affine.term c v) in
      let repl = Affine.scale (-c) r in
      let cons' =
        List.filter_map
          (fun cstr ->
            if cstr = Lincons.Eq e then None else Some (Lincons.subst v repl cstr))
          cons
      in
      simplify { vars = List.filter (fun x -> x <> v) t.vars; cons = cons' }
  | _ ->
      (* Turn equalities mentioning v into inequality pairs; drop strides
         mentioning v (over-approximation). *)
      let lowers = ref [] and uppers = ref [] and rest = ref [] in
      let add_ineq e =
        let c = Affine.coeff e v in
        if c > 0 then lowers := (c, Affine.sub e (Affine.term c v)) :: !lowers
        else if c < 0 then uppers := (-c, Affine.sub e (Affine.term c v)) :: !uppers
        else rest := Lincons.Ge e :: !rest
      in
      List.iter
        (function
          | Lincons.Ge e -> add_ineq e
          | Lincons.Eq e ->
              if Affine.coeff e v = 0 then rest := Lincons.Eq e :: !rest
              else begin
                add_ineq e;
                add_ineq (Affine.neg e)
              end
          | Lincons.Stride s ->
              if Affine.coeff s.expr v = 0 then rest := Lincons.Stride s :: !rest)
        cons;
      (* lower: c1*v + r1 >= 0  (v >= -r1/c1); upper: -c2*v + r2' ... stored
         as (c2, r2) meaning c2*v <= r2.  Pair: c2*r1 + c1*r2 >= 0. *)
      let pairs =
        List.concat_map
          (fun (c1, r1) ->
            List.map
              (fun (c2, r2) -> Lincons.Ge (Affine.add (Affine.scale c2 r1) (Affine.scale c1 r2)))
              !uppers)
          !lowers
      in
      simplify { vars = List.filter (fun x -> x <> v) t.vars; cons = pairs @ !rest }

let definitely_empty t =
  let projected = List.fold_left (fun acc v -> eliminate v acc) t t.vars in
  List.exists Lincons.is_trivially_false projected.cons

(* --- Bounded scanning --- *)

exception Unbounded of string

(* Projection chain: chain.(k) constrains variables vars_0..vars_k only
   (inner variables eliminated). *)
let projection_chain t =
  let vars = Array.of_list t.vars in
  let n = Array.length vars in
  let chain = Array.make (max n 1) t in
  if n > 0 then begin
    chain.(n - 1) <- simplify t;
    for k = n - 2 downto 0 do
      chain.(k) <- eliminate vars.(k + 1) chain.(k + 1)
    done
  end;
  chain

(* Integer bounds of variable [vk] in projection [p], with outer values
   fixed by [value.(0..k-1)]. *)
let level_bounds vars value p k =
  let vk = vars.(k) in
  let env v =
    let rec find i =
      if i >= k then None else if vars.(i) = v then Some value.(i) else find (i + 1)
    in
    find 0
  in
  let lo = ref None and hi = ref None in
  let tighten_lo b = match !lo with None -> lo := Some b | Some c -> if b > c then lo := Some b in
  let tighten_hi b = match !hi with None -> hi := Some b | Some c -> if b < c then hi := Some b in
  let handle_ineq e =
    let c = Affine.coeff e vk in
    if c <> 0 then begin
      let r = Affine.eval_opt env (Affine.sub e (Affine.term c vk)) in
      if Affine.is_const r then begin
        let rv = Affine.constant r in
        (* c*vk + rv >= 0 *)
        if c > 0 then tighten_lo (Rat.ceil (Rat.make (-rv) c))
        else tighten_hi (Rat.floor (Rat.make rv (-c)))
      end
    end
  in
  List.iter
    (function
      | Lincons.Ge e -> handle_ineq e
      | Lincons.Eq e ->
          handle_ineq e;
          handle_ineq (Affine.neg e)
      | Lincons.Stride _ -> ())
    p.cons;
  match (!lo, !hi) with
  | Some l, Some h -> (l, h)
  | None, _ | _, None -> raise (Unbounded vk)

let iter_points t f =
  let t = simplify t in
  if List.exists Lincons.is_trivially_false t.cons then ()
  else begin
    let vars = Array.of_list t.vars in
    let n = Array.length vars in
    if n = 0 then begin
      if t.cons = [] then f [||]
    end
    else begin
      let chain = projection_chain t in
      (* A projection that simplified to the canonical empty set proves
         the whole set empty (projections only relax constraints). *)
      let chain_empty =
        Array.exists
          (fun p -> List.exists Lincons.is_trivially_false p.cons)
          chain
      in
      if chain_empty then ()
      else begin
      let value = Array.make n 0 in
      let env_full v =
        let rec find i =
          if i >= n then raise Not_found
          else if vars.(i) = v then value.(i)
          else find (i + 1)
        in
        find 0
      in
      let rec go k =
        if k = n then begin
          if List.for_all (Lincons.eval env_full) t.cons then f (Array.copy value)
        end
        else begin
          let lo, hi = level_bounds vars value chain.(k) k in
          for v = lo to hi do
            value.(k) <- v;
            (* Prune with the projection's own constraints (cheap, and
               makes the scan proportional to the set's real extent). *)
            let env v' =
              let rec find i =
                if i > k then raise Not_found
                else if vars.(i) = v' then value.(i)
                else find (i + 1)
              in
              find 0
            in
            let feasible =
              List.for_all
                (fun c ->
                  match Lincons.eval env c with
                  | ok -> ok
                  | exception Not_found -> true)
                chain.(k).cons
            in
            if feasible then go (k + 1)
          done
        end
      in
      go 0
      end
    end
  end

let enumerate t =
  let acc = ref [] in
  iter_points t (fun p -> acc := p :: !acc);
  List.rev !acc

let is_empty_exact t =
  if definitely_empty t then true
  else begin
    let found = ref false in
    (try iter_points t (fun _ -> found := true; raise Exit) with Exit -> ());
    not !found
  end

let cardinal t =
  let c = ref 0 in
  iter_points t (fun _ -> incr c);
  !c

(* Work-stealing-free pool: tasks are claimed off a shared atomic
   counter and results land in a slot array indexed by input position,
   so the output order is the input order whatever the interleaving.

   Supervision: a task failure is confined to its own slot.  Workers
   keep claiming and finishing the remaining cells — partial results
   (and their persistent-cache writes) survive — and only once every
   cell has been attempted does the calling domain re-raise the first
   failure in input order, with the backtrace captured at the original
   raise site. *)

let map ~jobs f xs =
  if jobs < 1 then invalid_arg "Domain_pool.map: jobs must be >= 1";
  let n = List.length xs in
  let input = Array.of_list xs in
  let out = Array.make n None in
  (* Per-slot failures — never shared, so no synchronization beyond the
     claim counter and the joins is needed. *)
  let errs = Array.make n None in
  (* Never raises: every outcome is a value, so nothing can escape a
     worker domain and poison its siblings. *)
  let run i =
    match f input.(i) with
    | v -> out.(i) <- Some v
    | exception exn -> errs.(i) <- Some (exn, Printexc.get_raw_backtrace ())
  in
  (* The clamp: a domain beyond the cores buys no parallelism, yet every
     minor collection must still stop it with the others. *)
  let jobs = min (min jobs n) (Domain.recommended_domain_count ()) in
  if jobs <= 1 then
    for i = 0 to n - 1 do
      run i
    done
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          run i;
          go ()
        end
      in
      go ()
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains
  end;
  let rec first i =
    if i >= n then None
    else match errs.(i) with Some e -> Some e | None -> first (i + 1)
  in
  match first 0 with
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> Array.to_list (Array.map Option.get out)

type entry = {
  p_name : string;
  mutable total_s : float;
  mutable calls : int;
  mutable items : int;
}

let on = ref false
let table : (string, entry) Hashtbl.t = Hashtbl.create 16

(* The table is global and spans may close from any domain (the
   harness fans experiment rows out over a domain pool), so updates are
   serialized.  The disabled fast path stays a single branch. *)
let lock = Mutex.create ()

let enable () = on := true
let disable () = on := false
let reset () = Mutex.protect lock (fun () -> Hashtbl.reset table)

let entry name =
  match Hashtbl.find_opt table name with
  | Some e -> e
  | None ->
      let e = { p_name = name; total_s = 0.0; calls = 0; items = 0 } in
      Hashtbl.add table name e;
      e

let span name f =
  if not !on then f ()
  else begin
    let t0 = Sys.time () in
    Fun.protect
      ~finally:(fun () ->
        let dt = Sys.time () -. t0 in
        Mutex.protect lock (fun () ->
            let e = entry name in
            e.total_s <- e.total_s +. dt;
            e.calls <- e.calls + 1))
      f
  end

let count name n =
  if !on then
    Mutex.protect lock (fun () ->
        let e = entry name in
        e.items <- e.items + n)

let entries () =
  let all = Mutex.protect lock (fun () -> Hashtbl.fold (fun _ e acc -> e :: acc) table []) in
  List.sort (fun a b -> compare b.total_s a.total_s) all

let pp_table ppf () =
  match entries () with
  | [] -> Format.fprintf ppf "no profiled passes (profiling disabled?)@."
  | es ->
      Format.fprintf ppf "@[<v>%-36s %10s %7s %9s@," "pass" "total (ms)" "calls" "items";
      List.iter
        (fun e ->
          Format.fprintf ppf "%-36s %10.2f %7d %9d@," e.p_name (e.total_s *. 1000.0) e.calls
            e.items)
        es;
      Format.fprintf ppf "@]"

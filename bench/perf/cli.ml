(* The timed side: each workload pass spawns the built dpcc, one
   process at a time (a closed loop with one client), and checks what it
   wrote.  A pass never touches the user's cache: every child gets
   --cache-dir or --no-cache and a private TMPDIR. *)

let apps = [ "ast"; "fft"; "cholesky"; "visuo"; "scf"; "rsense" ]
let source app = Printf.sprintf "examples/programs/%s.dpl" app
let tenants = 1000
let budget = 500

type env = {
  dpcc : string;
  scratch : string;  (** wiped at the start and end of a run *)
  keep : string;  (** failing outputs are copied here for cmp *)
  golden : Golden.t;
  mutable spawned : int;
  mutable dpcc_md5 : string;  (** of the binary under test, once set up *)
}

type pass = {
  wall_s : float;  (** summed over the pass's invocations *)
  cpu_s : float;
  rss_mb : float;  (** the largest child's peak *)
  attempted : int;
  failed : int;
}

let spawn env ~name ~stdout args =
  env.spawned <- env.spawned + 1;
  Proc.run
    ~tmp:(Filename.concat env.scratch (Printf.sprintf "tmp-%d" env.spawned))
    ~stdout
    ~stderr:(Filename.concat env.scratch (name ^ ".err"))
    env.dpcc args

let md5 path = try Some (Digest.to_hex (Digest.file path)) with Sys_error _ -> None

(* Report a failed op on stderr and keep its output for inspection. *)
let reject env ~what ~output reason =
  Printf.eprintf "perf: %s: %s\n%!" what reason;
  if Sys.file_exists output then begin
    Proc.mkdir_p env.keep;
    let kept = Filename.concat env.keep (String.map (function ' ' -> '-' | c -> c) what) in
    Out_channel.with_open_bin kept (fun oc -> output_string oc (Proc.read_file output));
    Printf.eprintf "perf: kept as %s\n%!" kept
  end

let total outcomes ~attempted ~failed =
  let sum f = List.fold_left (fun acc (o : Proc.outcome) -> acc +. f o) 0. outcomes in
  {
    wall_s = sum (fun o -> o.wall_s);
    cpu_s = sum (fun o -> o.cpu_s);
    rss_mb =
      List.fold_left (fun acc (o : Proc.outcome) -> Float.max acc o.rss_mb) 0. outcomes;
    attempted;
    failed;
  }

(* The six report invocations against [cache_dir].  [warm] passes must
   also have been answered from the cache alone: the CLI's saved run
   counters may show no miss. *)
let report env ~workload ~warm ~cache_dir =
  let runs =
    List.map
      (fun app ->
        let json = Filename.concat env.scratch (app ^ ".json") in
        Proc.rm_rf json;
        let o =
          spawn env ~name:app
            ~stdout:(Filename.concat env.scratch (app ^ ".out"))
            [
              "report"; source app; "--procs"; "4"; "--cache-dir"; cache_dir;
              "--json"; json;
            ]
        in
        let problem =
          if o.Proc.code <> 0 then Some (Printf.sprintf "exit %d" o.Proc.code)
          else
            match md5 json with
            | None -> Some "no JSON written"
            | Some d when not (Golden.matches env.golden ~kind:"report" ~key:app d) ->
                Some "JSON differs from the golden output"
            | Some _ -> (
                match Dp_cachefs.Cachefs.load_run_counters ~dir:cache_dir with
                | Some { Dp_cachefs.Cachefs.misses; _ } when warm && misses > 0 ->
                    Some (Printf.sprintf "%d cache miss(es) on a warm run" misses)
                | _ -> None)
        in
        Option.iter (reject env ~what:(workload ^ " " ^ app) ~output:json) problem;
        (o, problem <> None))
      apps
  in
  total (List.map fst runs) ~attempted:(List.length runs)
    ~failed:(List.length (List.filter snd runs))

let serve env ~seed =
  let json = Filename.concat env.scratch "serve.json" in
  let o =
    spawn env ~name:"serve" ~stdout:json
      [
        "serve"; "--tenants"; string_of_int tenants; "--seed"; string_of_int seed;
        "--jobs"; "1"; "--no-cache"; "--json";
      ]
  in
  let problem =
    if o.Proc.code <> 0 then Some (Printf.sprintf "exit %d" o.Proc.code)
    else
      match md5 json with
      | Some d when Golden.matches env.golden ~kind:"serve" ~key:(string_of_int seed) d ->
          None
      | _ -> Some "JSON differs from the golden or first output of this seed"
  in
  Option.iter (reject env ~what:(Printf.sprintf "serve seed %d" seed) ~output:json) problem;
  total [ o ] ~attempted:1 ~failed:(if problem = None then 0 else 1)

(* The integer after the first ["KEY": ] in a Json_out document. *)
let int_field text key =
  let pat = Printf.sprintf "\"%s\": " key in
  let n = String.length text and m = String.length pat in
  let rec find i =
    if i + m > n then None
    else if String.sub text i m = pat then Some (i + m)
    else find (i + 1)
  in
  Option.bind (find 0) (fun i ->
      let j = ref i in
      while !j < n && text.[!j] >= '0' && text.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub text i (!j - i)))

let occurrences text pat =
  let m = String.length pat in
  let rec go i acc =
    if i + m > String.length text then acc
    else if String.sub text i m = pat then go (i + m) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* Each scenario is an op: one with findings fails; a crashed soak or an
   engine-run count that differs from the golden one fails them all. *)
let chaos env ~seed =
  let json = Filename.concat env.scratch "chaos.json" in
  let repro = Filename.concat env.scratch "chaos-repros" in
  Proc.rm_rf json;
  let o =
    spawn env ~name:"chaos"
      ~stdout:(Filename.concat env.scratch "chaos.out")
      [
        "chaos"; "--seed"; string_of_int seed; "--budget"; string_of_int budget;
        "--out"; repro; "--json"; json;
      ]
  in
  Proc.rm_rf repro;
  let text = try Proc.read_file json with Sys_error _ -> "" in
  let findings = occurrences text "\"repro_dir\"" in
  let failed, problem =
    match (o.Proc.code, int_field text "scenarios", int_field text "runs") with
    | (0 | 1), Some n, Some runs when n = budget ->
        let key = string_of_int seed in
        if findings > 0 then
          (findings, Some (Printf.sprintf "%d scenario(s) with findings" findings))
        else if not (Golden.matches env.golden ~kind:"chaos" ~key (string_of_int runs)) then
          (budget, Some (Printf.sprintf "%d engine runs, not the golden count" runs))
        else (0, None)
    | code, _, _ ->
        (budget, Some (Printf.sprintf "exit %d without a complete summary" code))
  in
  Option.iter (reject env ~what:(Printf.sprintf "chaos seed %d" seed) ~output:json) problem;
  total [ o ] ~attempted:budget ~failed

type t = Null | Stream of (Event.t -> unit)

let null = Null
let stream f = Stream f
let enabled = function Null -> false | Stream _ -> true
let emit t e = match t with Null -> () | Stream f -> f e

let tee sinks =
  match List.filter enabled sinks with
  | [] -> Null
  | [ s ] -> s
  | live -> Stream (fun e -> List.iter (fun s -> emit s e) live)

let collect () =
  let acc = ref [] in
  (Stream (fun e -> acc := e :: !acc), fun () -> List.rev !acc)

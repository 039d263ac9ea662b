module Json = Tiling_obs.Json

let rec canon j =
  match j with
  | Json.Obj fields ->
      Json.Obj
        (List.sort
           (fun (a, _) (b, _) -> String.compare a b)
           (List.map (fun (k, v) -> (k, canon v)) fields))
  | Json.List items -> Json.List (List.map canon items)
  | other -> other

let strip keys j =
  match j with
  | Json.Obj fields ->
      Json.Obj (List.filter (fun (k, _) -> not (List.mem k keys)) fields)
  | other -> other

(* Delivery options don't change which worker should own the search:
   stripping them keeps a traced request and its plain twin on the same
   node, where the second one hits the warm store. *)
let routing_noise = [ "trace"; "progress"; "deadline_s" ]

let shard_key ~meth ~params =
  meth ^ " " ^ Json.to_string (canon (strip routing_noise params))

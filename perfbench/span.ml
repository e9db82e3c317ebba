(* In-memory spans for the traced run: one per call the replay makes
   into a layer, with the span that caused it and the query it serves.
   Nothing is written until the run ends. *)

type t = {
  id : int;
  parent : int option;
  query : int;
  name : string;
  start : float;
  stop : float;
}

let spans : t list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let duration s = s.stop -. s.start

(* [record ~query name f] runs [f] inside a new span whose parent is
   the innermost span still open. *)
let record ~query name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> Some p | [] -> None in
  stack := id :: !stack;
  let start = Stat.now () in
  let finish () =
    let stop = Stat.now () in
    stack := List.tl !stack;
    spans := { id; parent; query; name; start; stop } :: !spans
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let all () = List.rev !spans

(* Total duration of every span called [name]. *)
let total name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0.0 !spans

let count name = List.length (List.filter (fun s -> s.name = name) !spans)

let to_json oc =
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\":%d,\"parent\":%s,\"query\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f}\n"
        (if i = 0 then "" else ",")
        s.id
        (match s.parent with Some p -> string_of_int p | None -> "null")
        s.query s.name s.start s.stop)
    (all ());
  output_string oc "]\n"

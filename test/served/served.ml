(* Reading a served NDJSON stream back, through Sl_json, the one JSON
   reader. A verdict record collapses to a (trace, prop, verdict,
   position) tuple, position -1 when it has none, so that the
   incremental records and the EOF dump of one verdict are one tuple and
   a served stream compares as a set with the offline verdict table. *)

module Json = Sl_json.Json

module Tuples = Set.Make (struct
  type t = string * string * string * int

  let compare = compare
end)

(* Every non-empty line of [out] must be a JSON value: its records. *)
let records out =
  String.split_on_char '\n' out
  |> List.filter (( <> ) "")
  |> List.map (fun l ->
         match Json.parse l with
         | Ok v -> v
         | Error e -> failwith (Printf.sprintf "invalid JSON (%s): %s" e l))

let has_type ty r = Json.member "type" r = Some (Json.Str ty)

let records_of_type ty out = List.filter (has_type ty) (records out)

let field conv k v =
  match Option.bind (Json.member k v) conv with
  | Some x -> x
  | None -> failwith (Printf.sprintf "missing or mistyped field %S" k)

(* The tuple of [trace]'s verdict [v], a served record or a verdict row
   of the offline report. *)
let tuple ~trace v =
  ( trace, field Json.str "prop" v, field Json.str "verdict" v,
    if Json.member "position" v = None then -1
    else field Json.int_ "position" v )

let served_tuples out =
  List.fold_left
    (fun acc r -> Tuples.add (tuple ~trace:(field Json.str "trace" r) r) acc)
    Tuples.empty
    (records_of_type "verdict" out)

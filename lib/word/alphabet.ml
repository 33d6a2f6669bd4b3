type t = { names : string array }

let make names =
  if Array.length names = 0 then invalid_arg "Alphabet.make: empty";
  { names = Array.copy names }

let binary = make [| "a"; "b" |]

let of_subsets props =
  let props = Array.of_list props in
  let n = Array.length props in
  if n > 16 then invalid_arg "Alphabet.of_subsets: too many propositions";
  let name i =
    let members =
      List.filteri (fun _ _ -> true) (Array.to_list props)
      |> List.mapi (fun j p -> (j, p))
      |> List.filter_map (fun (j, p) ->
             if i land (1 lsl j) <> 0 then Some p else None)
    in
    "{" ^ String.concat "," members ^ "}"
  in
  make (Array.init (1 lsl n) name)

let size a = Array.length a.names
let label a i = a.names.(i)
let symbols a = List.init (size a) Fun.id
let mem a i = i >= 0 && i < size a
let equal a b = a.names = b.names

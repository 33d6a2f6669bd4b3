open Sl_runtime

(* Build the new-engine state of one trace from the old one: carried
   monitors keep state/trip/liveness, fresh monitors start at the start
   state (pre-tripped ones trip at position 0, like any
   materialization). The live list is ascending; [Engine.restore]
   validates the result like any snapshot. *)
let carry_trace ~new_monitors ~(map : int option array)
    ~(inv : int option array) (ts : Engine.trace_state) =
  let m' = Array.length map in
  let states = Array.make m' Packed_dfa.start in
  let tripped_at = Array.make m' (-1) in
  let live = Array.make m' false in
  Array.iter
    (fun i -> Option.iter (fun j -> live.(j) <- true) inv.(i))
    ts.Engine.ts_live;
  for j = 0 to m' - 1 do
    let pd : Packed_dfa.t = new_monitors.(j) in
    match map.(j) with
    | Some i ->
        states.(j) <- ts.Engine.ts_states.(i);
        tripped_at.(j) <- ts.Engine.ts_tripped_at.(i)
    | None ->
        if pd.Packed_dfa.pre_tripped then tripped_at.(j) <- 0
        else live.(j) <- not pd.Packed_dfa.vacuous
  done;
  {
    Engine.ts_events = ts.Engine.ts_events;
    ts_states = states;
    ts_live =
      Array.of_list
        (List.filter (fun j -> live.(j)) (List.init m' Fun.id));
    ts_tripped_at = tripped_at;
  }

let carry_over ~old_session ~registry () =
  let old_registry = Session.registry old_session in
  let old_engine = Session.engine old_session in
  if Registry.alphabet old_registry <> Registry.alphabet registry then
    Error
      (Printf.sprintf
         "alphabet changed (%d -> %d): in-flight traces cannot be carried over"
         (Registry.alphabet old_registry)
         (Registry.alphabet registry))
  else begin
    let old_monitors = Engine.monitors old_engine in
    let new_monitors = Registry.monitors registry in
    let by_key = Hashtbl.create 16 in
    Array.iteri
      (fun i (pd : Packed_dfa.t) -> Hashtbl.replace by_key pd.Packed_dfa.key i)
      old_monitors;
    (* new monitor index -> old monitor index, and its inverse *)
    let map =
      Array.map
        (fun (pd : Packed_dfa.t) -> Hashtbl.find_opt by_key pd.Packed_dfa.key)
        new_monitors
    in
    let inv = Array.make (Array.length old_monitors) None in
    Array.iteri
      (fun j oi -> match oi with Some i -> inv.(i) <- Some j | None -> ())
      map;
    let traces =
      Array.init (Engine.ntraces old_engine) (fun id ->
          Option.map
            (carry_trace ~new_monitors ~map ~inv)
            (Engine.export_trace old_engine id))
    in
    match
      Session.restore ~registry ~ingest:(Session.ingest old_session) traces
    with
    | exception Invalid_argument e -> Error e
    | fresh ->
        let carried =
          Array.fold_left
            (fun acc oi -> match oi with Some _ -> acc + 1 | None -> acc)
            0 map
        in
        Ok (fresh, carried)
  end

let from_props_file ~old_session ~props_file () =
  let alphabet = Registry.alphabet (Session.registry old_session) in
  let registry = Registry.create ~alphabet () in
  match Registry.load_file registry props_file with
  | Error e -> Error e
  | Ok _ when Registry.nprops registry = 0 ->
      Error
        (Printf.sprintf "%s: no well-formed properties; reload refused"
           props_file)
  | Ok errs ->
      Result.map
        (fun (s, carried) -> (s, carried, errs))
        (carry_over ~old_session ~registry ())

open Sl_runtime

(* Build the new-engine state of one trace from the old one: carried
   monitors keep state/trip/liveness, fresh monitors start at the start
   state (pre-tripped ones trip at position 0, like any
   materialization). Live order: carried monitors in the old live-list
   order, then fresh lives ascending — [Engine.restore_trace] validates
   the result like any snapshot. *)
let carry_trace ~new_monitors ~(map : int option array)
    ~(inv : int option array) (ts : Engine.trace_state) =
  let m' = Array.length map in
  let states = Array.make m' Packed_dfa.start in
  let tripped_at = Array.make m' (-1) in
  let fresh_live = ref [] in
  for j = m' - 1 downto 0 do
    let pd : Packed_dfa.t = new_monitors.(j) in
    match map.(j) with
    | Some i ->
        states.(j) <- ts.Engine.ts_states.(i);
        tripped_at.(j) <- ts.Engine.ts_tripped_at.(i)
    | None ->
        if pd.Packed_dfa.pre_tripped then tripped_at.(j) <- 0
        else if not pd.Packed_dfa.vacuous then fresh_live := j :: !fresh_live
  done;
  let carried_live =
    Array.to_list ts.Engine.ts_live
    |> List.filter_map (fun i -> inv.(i))
  in
  {
    Engine.ts_events = ts.Engine.ts_events;
    ts_states = states;
    ts_live = Array.of_list (carried_live @ !fresh_live);
    ts_tripped_at = tripped_at;
  }

let carry_over ~old_session ~registry () =
  let old_registry = Session.registry old_session in
  let old_engine = Session.engine old_session in
  if Registry.fingerprint old_registry = Registry.fingerprint registry then
    (* structurally identical: exact continuation via the snapshot codec *)
    match
      Session.of_artifact ~registry (Session.to_artifact old_session)
    with
    | Ok s -> Ok (s, Registry.nmonitors registry)
    | Error e -> Error (Session.restore_error_to_string e)
  else if Registry.alphabet old_registry <> Registry.alphabet registry then
    Error
      (Printf.sprintf
         "alphabet changed (%d -> %d): in-flight traces cannot be carried over"
         (Registry.alphabet old_registry)
         (Registry.alphabet registry))
  else begin
    let old_monitors = Engine.plan_monitors (Engine.plan old_engine) in
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
    let fresh = Session.create ~registry () in
    let new_ingest = Session.ingest fresh in
    Array.iter
      (fun name -> ignore (Ingest.intern new_ingest name))
      (Ingest.names (Session.ingest old_session));
    let new_engine = Session.engine fresh in
    let tripped = ref 0 and retired = ref 0 in
    for id = 0 to Engine.ntraces old_engine - 1 do
      match Engine.export_trace old_engine id with
      | None -> ()
      | Some ts ->
          let ts' = carry_trace ~new_monitors ~map ~inv ts in
          Engine.restore_trace new_engine id ts';
          let in_live = Array.make (Array.length new_monitors) false in
          Array.iter (fun j -> in_live.(j) <- true) ts'.Engine.ts_live;
          Array.iteri
            (fun j (pd : Packed_dfa.t) ->
              if ts'.Engine.ts_tripped_at.(j) >= 0 then incr tripped
              else if (not pd.Packed_dfa.vacuous) && not in_live.(j) then
                incr retired)
            new_monitors
    done;
    Engine.set_counters new_engine ~events:(Engine.events old_engine)
      ~tripped:!tripped ~retired_admissible:!retired;
    let carried =
      Array.fold_left
        (fun acc oi -> match oi with Some _ -> acc + 1 | None -> acc)
        0 map
    in
    Ok (fresh, carried)
  end

let from_props_file ~old_session ~props_file () =
  let old_registry = Session.registry old_session in
  match open_in props_file with
  | exception Sys_error msg -> Error msg
  | ic ->
      let registry =
        Registry.create ~alphabet:(Registry.alphabet old_registry) ()
      in
      let errs =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> Registry.load_channel registry ~path:props_file ic)
      in
      if Registry.nprops registry = 0 then
        Error
          (Printf.sprintf "%s: no well-formed properties; reload refused"
             props_file)
      else begin
        match carry_over ~old_session ~registry () with
        | Ok (s, carried) -> Ok (s, carried, errs)
        | Error e -> Error e
      end

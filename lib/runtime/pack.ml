module Wire = Sl_core.Wire

type t = {
  alphabet : int;
  props : (string * int) array;
  monitors : Packed_dfa.t array;
}

let of_registry reg =
  {
    alphabet = Registry.alphabet reg;
    props =
      Array.of_list
        (List.map
           (fun p -> (p.Registry.name, p.Registry.monitor))
           (Registry.props reg));
    monitors = Registry.monitors reg;
  }

let encode w pk =
  Wire.put_int w pk.alphabet;
  Wire.put_int w (Array.length pk.props);
  Array.iter
    (fun (name, monitor) ->
      Wire.put_string w name;
      Wire.put_int w monitor)
    pk.props;
  Wire.put_int w (Array.length pk.monitors);
  Array.iter (fun pd -> Packed_dfa.encode w pd) pk.monitors

let decode r =
  let fail fmt = Printf.ksprintf (fun s -> raise (Wire.Corrupt s)) fmt in
  let alphabet = Wire.get_int r in
  if alphabet < 1 then fail "pack: bad alphabet %d" alphabet;
  let nprops = Wire.get_int r in
  (* A property needs at least 16 payload bytes (name length prefix +
     monitor index), so a forged count that outgrows the remaining
     payload fails here — before [Array.init] tries to allocate it. *)
  if nprops < 0 || nprops > Wire.remaining r / 16 then
    fail "pack: bad property count %d" nprops;
  let props =
    Array.init nprops (fun _ ->
        let name = Wire.get_string r in
        let monitor = Wire.get_int r in
        (name, monitor))
  in
  let nmonitors = Wire.get_int r in
  if nmonitors < 0 || nmonitors > Wire.remaining r / 8 then
    fail "pack: bad monitor count %d" nmonitors;
  let monitors = Array.init nmonitors (fun _ -> Packed_dfa.decode r) in
  Array.iter
    (fun pd ->
      if pd.Packed_dfa.alphabet <> alphabet then
        fail "pack: monitor alphabet %d in alphabet-%d pack"
          pd.Packed_dfa.alphabet alphabet)
    monitors;
  Array.iter
    (fun (name, monitor) ->
      if monitor < 0 || monitor >= nmonitors then
        fail "pack: property %S references monitor %d of %d" name monitor
          nmonitors)
    props;
  { alphabet; props; monitors }

let to_artifact pk =
  let w = Wire.writer () in
  encode w pk;
  Wire.to_artifact ~kind:Wire.kind_pack w

let of_artifact s =
  match
    let r = Wire.of_artifact_kind ~kind:Wire.kind_pack s in
    let pk = decode r in
    Wire.expect_end r;
    pk
  with
  | pk -> Ok pk
  | exception Wire.Corrupt msg -> Error msg

(* Same atomic publish as the cache: a reader never sees a torn pack. *)
let write pk ~path = Wire.publish ~path (to_artifact pk)

let read ~path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | s -> of_artifact s
          | exception (Sys_error _ | End_of_file) ->
              Error (path ^ ": unreadable"))

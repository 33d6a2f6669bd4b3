exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* Header layout: 11 magic bytes, 1 version byte, 1 kind byte. The
   trailer is the 8-byte little-endian FNV-1a hash of everything before
   it (header included, so a kind or version flip also fails the
   checksum, not only its own field check). *)
let magic = "sl-artifact"
let format_version = 1
let header_len = String.length magic + 2
let trailer_len = 8

let kind_packed_dfa = 1
let kind_buchi = 2
let kind_digraph = 3
let kind_pack = 4
let kind_session = 5

(* FNV-1a, 64-bit. Int64 multiplication wraps, which is exactly the
   mod-2^64 arithmetic the hash is defined over. *)
let fnv64_sub s pos len =
  let h = ref 0xcbf29ce484222325L in
  for i = pos to pos + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i])))
           0x100000001b3L
  done;
  !h

let fnv64 s = fnv64_sub s 0 (String.length s)
let fnv64_hex s = Printf.sprintf "%016Lx" (fnv64 s)

type writer = Buffer.t

let writer () = Buffer.create 256

let put_int w n = Buffer.add_int64_le w (Int64.of_int n)
let put_bool w b = Buffer.add_char w (if b then '\001' else '\000')

let put_string w s =
  put_int w (String.length s);
  Buffer.add_string w s

let put_int_array w a =
  put_int w (Array.length a);
  Array.iter (put_int w) a

let put_bool_array w a =
  put_int w (Array.length a);
  Array.iter (put_bool w) a

let to_artifact ~kind w =
  if kind < 0 || kind > 0xff then invalid_arg "Wire.to_artifact: bad kind";
  let b = Buffer.create (header_len + Buffer.length w + trailer_len) in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr format_version);
  Buffer.add_char b (Char.chr kind);
  Buffer.add_buffer b w;
  let body = Buffer.contents b in
  Buffer.add_int64_le b (fnv64 body);
  Buffer.contents b

let publish ~path blob =
  let tmp =
    Filename.temp_file ~temp_dir:(Filename.dirname path) "sl-publish" ".tmp"
  in
  try
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc blob; close_out oc);
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

type reader = { s : string; mutable pos : int; stop : int }

let need r n =
  if r.stop - r.pos < n then
    corrupt "truncated payload at byte %d (need %d, have %d)" r.pos n
      (r.stop - r.pos)

let get_int r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.s r.pos) in
  r.pos <- r.pos + 8;
  v

let get_bool r =
  need r 1;
  let c = r.s.[r.pos] in
  r.pos <- r.pos + 1;
  match c with
  | '\000' -> false
  | '\001' -> true
  | c -> corrupt "bad bool byte 0x%02x" (Char.code c)

let checked_len r what n =
  if n < 0 || n > r.stop - r.pos then corrupt "bad %s length %d" what n;
  n

let get_string r =
  let n = checked_len r "string" (get_int r) in
  let v = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  v

let get_int_array r =
  (* Each element is 8 bytes, so the length bound divides by 8 first —
     a huge forged length must fail here, not in [Array.make]. *)
  let n = get_int r in
  if n < 0 || n > (r.stop - r.pos) / 8 then corrupt "bad int array length %d" n;
  Array.init n (fun _ -> get_int r)

let get_bool_array r =
  let n = checked_len r "bool array" (get_int r) in
  Array.init n (fun _ -> get_bool r)

let remaining r = r.stop - r.pos

let expect_end r =
  if r.pos <> r.stop then
    corrupt "%d trailing bytes after payload" (r.stop - r.pos)

let of_artifact s =
  let len = String.length s in
  if len < header_len + trailer_len then corrupt "artifact too short (%d bytes)" len;
  if not (String.equal (String.sub s 0 (String.length magic)) magic) then
    corrupt "bad magic";
  let version = Char.code s.[String.length magic] in
  if version <> format_version then
    corrupt "format version %d (this build reads %d)" version format_version;
  let kind = Char.code s.[String.length magic + 1] in
  let body_len = len - trailer_len in
  let stored = String.get_int64_le s body_len in
  if not (Int64.equal stored (fnv64_sub s 0 body_len)) then
    corrupt "checksum mismatch";
  (kind, { s; pos = header_len; stop = body_len })

let of_artifact_kind ~kind s =
  let k, r = of_artifact s in
  if k <> kind then corrupt "payload kind %d where %d expected" k kind;
  r

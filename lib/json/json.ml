(* The project's one JSON format: a value type, the escaper and the
   integer printer the serving hot path writes through directly, a
   writer with exactly two layouts, and a reader. No dependencies, so
   every library — sl_obs, below sl_core, included — can use it. *)

type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Buffer primitives                                                   *)
(* ------------------------------------------------------------------ *)

(* True when no byte of [s] from [i] on needs escaping. *)
let rec plain s i =
  i >= String.length s
  ||
  match String.unsafe_get s i with
  | '"' | '\\' | '\000' .. '\031' -> false
  | _ -> plain s (i + 1)

(* Trace and prop names almost never need escaping: those are copied
   with one blit; the rest take the per-byte loop. *)
let add_escaped buf s =
  if plain s 0 then Buffer.add_string buf s
  else
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | ch when Char.code ch < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
        | ch -> Buffer.add_char buf ch)
      s

(* Decimal digits of [m <= 0], most significant first. Working on the
   non-positive side covers [min_int], whose magnitude has no positive
   int. *)
let rec add_digits buf m =
  if m <= -10 then add_digits buf (m / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (m mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let int n = Num (string_of_int n)
let fixed digits x = Num (Printf.sprintf "%.*f" digits x)
let opt f = function None -> Null | Some x -> f x

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type layout = Line | Block

let add_quoted buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

(* [items] between [opn] and [cls], each written by [item] and
   preceded by [sep] from the second on. *)
let add_seq buf opn cls sep item items =
  Buffer.add_char buf opn;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf sep;
      item x)
    items;
  Buffer.add_char buf cls

let rec add_line buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num s -> Buffer.add_string buf s
  | Str s -> add_quoted buf s
  | Arr vs -> add_seq buf '[' ']' ", " (add_line buf) vs
  | Obj kvs -> add_seq buf '{' '}' ", " (add_member buf add_line) kvs

and add_member buf add_value (k, v) =
  add_quoted buf k;
  Buffer.add_string buf ": ";
  add_value buf v

(* The block layout: the top-level object's members, and the elements
   of an array that is the whole value or a top-level member's value,
   each on its own line indented two spaces per level; everything below
   that is one line. An empty block array is still broken, [[\n  ]]. *)
let rec add_block depth buf v =
  let broken opn cls item items =
    let indent n = Buffer.add_string buf (String.make (2 * n) ' ') in
    Buffer.add_char buf opn;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '\n';
        indent (depth + 1);
        item x)
      items;
    Buffer.add_char buf '\n';
    indent depth;
    Buffer.add_char buf cls
  in
  match v with
  | Obj kvs when depth = 0 ->
      broken '{' '}' (add_member buf (add_block (depth + 1))) kvs
  | Arr vs when depth <= 1 -> broken '[' ']' (add_line buf) vs
  | v -> add_line buf v

let to_string ?(layout = Line) v =
  let buf = Buffer.create 256 in
  (match layout with Line -> add_line buf v | Block -> add_block 0 buf v);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

type state = { s : string; mutable pos : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None
let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while match peek st with Some (' ' | '\t' | '\n' | '\r') -> true | _ -> false do
    advance st
  done

let expect st c =
  if peek st = Some c then advance st
  else fail "expected '%c' at %d" c st.pos

let literal st word v =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    v
  end
  else fail "bad literal at %d" st.pos

let hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    let d =
      match peek st with
      | Some ('0' .. '9' as c) -> Char.code c - Char.code '0'
      | Some ('a' .. 'f' as c) -> Char.code c - Char.code 'a' + 10
      | Some ('A' .. 'F' as c) -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad \\u escape at %d" st.pos
    in
    v := (!v * 16) + d;
    advance st
  done;
  !v

(* A \uXXXX escape (the [\u] already consumed) as a code point; a high
   surrogate must be followed by its low half. *)
let code_point st =
  let hi = hex4 st in
  if hi < 0xd800 || hi > 0xdbff then hi
  else begin
    expect st '\\';
    expect st 'u';
    let lo = hex4 st in
    if lo < 0xdc00 || lo > 0xdfff then fail "lone surrogate at %d" st.pos;
    0x10000 + ((hi - 0xd800) lsl 10) + (lo - 0xdc00)
  end

(* Escapes decode to UTF-8 bytes; every other byte is copied. *)
let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail "unterminated string at %d" st.pos
    | Some '"' -> advance st
    | Some '\\' ->
        advance st;
        let c =
          match peek st with
          | Some (('"' | '\\' | '/') as c) -> c
          | Some 'b' -> '\b'
          | Some 'f' -> '\012'
          | Some 'n' -> '\n'
          | Some 'r' -> '\r'
          | Some 't' -> '\t'
          | Some 'u' -> 'u'
          | _ -> fail "bad escape at %d" st.pos
        in
        advance st;
        if c <> 'u' then Buffer.add_char buf c
        else begin
          let cp = code_point st in
          if not (Uchar.is_valid cp) then fail "lone surrogate at %d" st.pos;
          Buffer.add_utf_8_uchar buf (Uchar.of_int cp)
        end;
        go ()
    | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ()
  in
  go ();
  Buffer.contents buf

(* The JSON number grammar: an optional minus, 0 or digits without a
   leading zero, an optional fraction, an optional exponent. The
   token's text is kept as is. *)
let parse_number st =
  let start = st.pos in
  let digits () =
    let from = st.pos in
    while match peek st with Some '0' .. '9' -> true | _ -> false do
      advance st
    done;
    if st.pos = from then fail "bad number at %d" start
  in
  let skip c = if peek st = Some c then (advance st; true) else false in
  ignore (skip '-');
  if not (skip '0') then digits ();
  if skip '.' then digits ();
  if skip 'e' || skip 'E' then begin
    ignore (skip '+' || skip '-');
    digits ()
  end;
  Num (String.sub st.s start (st.pos - start))

(* Comma-separated items up to [cls], each read by [item]; the opening
   bracket is already consumed. *)
let parse_seq st cls item =
  skip_ws st;
  if peek st = Some cls then (advance st; [])
  else
    let rec go acc =
      let acc = item () :: acc in
      skip_ws st;
      match peek st with
      | Some ',' -> advance st; go acc
      | Some c when c = cls -> advance st; List.rev acc
      | _ -> fail "expected ',' or '%c' at %d" cls st.pos
    in
    go []

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input at %d" st.pos
  | Some '{' ->
      advance st;
      Obj
        (parse_seq st '}' (fun () ->
             skip_ws st;
             let k = parse_string st in
             skip_ws st;
             expect st ':';
             (k, parse_value st)))
  | Some '[' ->
      advance st;
      Arr (parse_seq st ']' (fun () -> parse_value st))
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let parse s =
  let st = { s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "trailing bytes at %d" st.pos)
      else Ok v
  | exception Bad msg -> Error msg

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let str = function Str s -> Some s | _ -> None
let num = function Num s -> float_of_string_opt s | _ -> None
let int_ = function Num s -> int_of_string_opt s | _ -> None
let bool_ = function Bool b -> Some b | _ -> None
let arr = function Arr l -> Some l | _ -> None

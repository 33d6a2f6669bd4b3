(* The line-at-a-time trace reader that [Sl_runtime.Ingest]'s zero-copy
   scanner replaced, kept as the reference the scanner pins compare
   against (test/test_runtime.ml, test/test_session.ml): a string per
   line and per field, simple and obviously correct. Same protocol —
   one "trace-id symbol" event per line, blank lines and '#' comments
   skipped — and the same error records, reasons and interning order as
   the scanner. *)

module Ingest = Sl_runtime.Ingest

let is_space c = c = ' ' || c = '\t' || c = '\r'

let split_fields s =
  let n = String.length s in
  let fields = ref [] in
  let i = ref 0 in
  while !i < n do
    while !i < n && is_space s.[!i] do incr i done;
    if !i < n then begin
      let start = !i in
      while !i < n && not (is_space s.[!i]) do incr i done;
      fields := String.sub s start (!i - start) :: !fields
    end
  done;
  List.rev !fields

(* Strict decimal symbol parse: an optional '-' followed by digits only.
   Unlike [int_of_string_opt] this rejects the 0x/0o/0b radix prefixes,
   '_' separators and a leading '+'; overflow reads as garbage. *)
type symbol_parse = Sym of int | Sym_negative | Sym_garbage

let overflow_div = max_int / 10
let overflow_rem = max_int mod 10

let parse_symbol s =
  let len = String.length s in
  let neg = len > 0 && s.[0] = '-' in
  let start = if neg then 1 else 0 in
  if start >= len then Sym_garbage
  else begin
    let v = ref 0 in
    let ok = ref true in
    let i = ref start in
    while !ok && !i < len do
      let c = Char.code s.[!i] - Char.code '0' in
      if c < 0 || c > 9 then ok := false
      else if !v > overflow_div || (!v = overflow_div && c > overflow_rem)
      then ok := false
      else begin
        v := (!v * 10) + c;
        incr i
      end
    done;
    if not !ok then Sym_garbage else if neg then Sym_negative else Sym !v
  end

let parse_line line =
  match split_fields line with
  | [] -> `Skip
  | field :: _ when String.length field > 0 && field.[0] = '#' -> `Skip
  | [ trace; sym ] -> (
      match parse_symbol sym with
      | Sym symbol -> `Event (trace, symbol)
      | Sym_negative -> `Malformed (Some trace, "negative symbol")
      | Sym_garbage ->
          `Malformed
            (Some trace, Printf.sprintf "symbol %S is not an integer" sym))
  | [ trace ] ->
      `Malformed (Some trace, "expected \"trace-id symbol\", got one field")
  | trace :: _ ->
      `Malformed (Some trace, "expected \"trace-id symbol\", got extra fields")

(* Pull lines until [next_line] returns [None], batching valid events
   into one reused chunk and reporting malformed or out-of-alphabet
   lines, and lines longer than [max_line] bytes, to [on_error]. *)
let read ?(chunk_size = 4096) ?(max_line = max_int) ~alphabet t ~next_line
    ~on_chunk ~on_error =
  let chunk = Ingest.create_chunk chunk_size in
  let flush () =
    if chunk.Ingest.len > 0 then begin
      on_chunk chunk;
      chunk.Ingest.len <- 0
    end
  in
  let lineno = ref 0 in
  let continue = ref true in
  while !continue do
    match next_line () with
    | None -> continue := false
    | Some line when String.length line > max_line ->
        incr lineno;
        on_error
          { Ingest.e_line = !lineno; e_trace = None;
            e_reason = Printf.sprintf "line exceeds %d bytes (skipped)" max_line }
    | Some line -> (
        incr lineno;
        match parse_line line with
        | `Skip -> ()
        | `Malformed (trace, reason) ->
            on_error
              { Ingest.e_line = !lineno; e_trace = trace; e_reason = reason }
        | `Event (trace, symbol) when symbol >= alphabet ->
            on_error
              { Ingest.e_line = !lineno; e_trace = Some trace;
                e_reason =
                  Printf.sprintf "symbol %d outside alphabet [0, %d)" symbol
                    alphabet }
        | `Event (trace, symbol) ->
            chunk.Ingest.trace_ids.(chunk.Ingest.len) <- Ingest.intern t trace;
            chunk.Ingest.symbols.(chunk.Ingest.len) <- symbol;
            chunk.Ingest.len <- chunk.Ingest.len + 1;
            if chunk.Ingest.len = chunk_size then flush ())
  done;
  flush ()

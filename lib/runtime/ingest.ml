(* Trace ingestion: the line protocol is one event per line,

     trace-id symbol

   where trace-id is any whitespace-free token and symbol a decimal
   letter index in [0, alphabet). Blank lines and '#' comments are
   skipped. Trace ids are interned to the dense ints the engine indexes
   by.

   The incremental [scanner] is the one line framer: [slc monitor] and
   every serve connection read through it. It walks the raw read
   buffer in place: token bounds are byte offsets, symbols parse with a
   strict decimal digit loop, and trace-id interning probes a hash
   computed over the byte slice — a string is materialized only on
   first sight of a new id (or on the cold error path). The QCheck pin
   in test_runtime holds it byte-for-byte equal to a line-at-a-time
   reference reader (test/reference, [Ingest_ref]), with and without a
   line cap, over hostile streams at every block boundary. *)

module Obs = Sl_obs.Obs

(* Pipeline-stage timing: time the scanner spends splitting and
   validating lines, less the nested chunk delivery — the engine-feed
   stage is timed by [Engine.feed] itself. Observed once per block fed,
   so the per-line loop never reads the clock. The only producer of
   this family: [slc monitor] and every serve connection scan through
   here. *)
let h_stage_parse =
  Obs.Metrics.histogram
    ~help:"Pipeline stage: line scan latency per block, less the chunk feed"
    "stage_ingest_parse_ns"

(* --- Interner ---

   Open-addressed hash table over byte slices: [slots] holds id+1 (0 =
   empty) at positions probed from an FNV-1a hash of the id's bytes,
   resolved by content comparison against [names]. Lookups of known ids
   allocate nothing — the point of the zero-copy path — and [intern] on
   a whole string is the same probe. *)
type t = {
  mutable names : string array;  (* id -> name, dense in [0, n) *)
  mutable n : int;
  mutable slots : int array;  (* open addressing: 0 = empty, else id+1 *)
  mutable mask : int;  (* Array.length slots - 1, power of two minus 1 *)
  mutable r_sym : int;
  mutable r_id_off : int;
  mutable r_id_len : int;
  mutable r_hash : int;
      (* the last event line [scan_event] accepted: its symbol, its
         trace id's bounds and hash — out-param cells, so the hot path
         returns them without allocating *)
}

let create () =
  { names = [||]; n = 0; slots = Array.make 64 0; mask = 63; r_sym = 0;
    r_id_off = 0; r_id_len = 0; r_hash = 0 }

let ntraces t = t.n

let name t id =
  if id < 0 || id >= t.n then invalid_arg "Ingest.name";
  t.names.(id)

let names t = Array.sub t.names 0 t.n

(* FNV-1a over a byte slice, truncated to a nonnegative OCaml int. *)
let hash_slice s off len =
  let h = ref 0x811c9dc5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193
  done;
  !h land max_int

external get64u : string -> int -> int64 = "%caml_string_get64u"

(* The bytes a string's heap block spans: its length plus the padding
   that rounds it up to whole words (at least one byte, which holds the
   padding count). A load that ends within it stays inside the block. *)
let block_end s =
  if Sys.word_size = 64 then (String.length s lor 7) + 1
  else (String.length s lor 3) + 1

(* [name] (of length [len]) = [s.[off, off+len)], a word at a time. The
   last partial word is loaded whole from both strings, and the bytes
   past [len] are shifted out of the difference (the low bytes come
   first on a little-endian host, the high ones on a big-endian host),
   unless a load would pass the end of a block: then it is compared a
   byte at a time. *)
let eq_slice name s off len =
  let i = ref 0 in
  while !i + 8 <= len && (get64u name !i : int64) = get64u s (off + !i) do
    i := !i + 8
  done;
  let i = !i in
  if i + 8 <= len then false
  else if i = len then true
  else if i + 8 <= block_end name && off + i + 8 <= block_end s then begin
    let past = 64 - (8 * (len - i)) in
    let x = Int64.logxor (get64u name i) (get64u s (off + i)) in
    if Sys.big_endian then Int64.shift_right_logical x past = 0L
    else Int64.shift_left x past = 0L
  end
  else begin
    let j = ref i in
    while !j < len && String.unsafe_get name !j = String.unsafe_get s (off + !j)
    do
      incr j
    done;
    !j = len
  end

(* Index of the slot holding the slice's id, or of the first empty slot
   of its probe sequence. The table is kept under half full, so the
   probe terminates. *)
let find_slot t s off len h =
  let mask = t.mask in
  let i = ref (h land mask) in
  let res = ref (-1) in
  while !res < 0 do
    let v = Array.unsafe_get t.slots !i in
    if v = 0 then res := !i
    else begin
      let nm = Array.unsafe_get t.names (v - 1) in
      if String.length nm = len && eq_slice nm s off len then res := !i
      else i := (!i + 1) land mask
    end
  done;
  !res

let rehash t =
  let ncap = 2 * (t.mask + 1) in
  let slots = Array.make ncap 0 in
  let mask = ncap - 1 in
  for id = 0 to t.n - 1 do
    let nm = t.names.(id) in
    let i = ref (hash_slice nm 0 (String.length nm) land mask) in
    while slots.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- id + 1
  done;
  t.slots <- slots;
  t.mask <- mask

let intern_slice_h t s off len h =
  let slot = find_slot t s off len h in
  let v = t.slots.(slot) in
  if v <> 0 then v - 1
  else begin
    (* first sight: materialize the id exactly once *)
    let str = String.sub s off len in
    if t.n = Array.length t.names then begin
      let cap = max 8 (2 * t.n) in
      (* spare capacity holds a shared empty string — a placeholder
         like [str] would pin an arbitrary trace id alive for as long
         as the slot stays spare *)
      let a = Array.make cap "" in
      Array.blit t.names 0 a 0 t.n;
      t.names <- a
    end;
    let id = t.n in
    t.names.(id) <- str;
    t.n <- id + 1;
    t.slots.(slot) <- id + 1;
    if 2 * t.n >= t.mask + 1 then rehash t;
    id
  end

let intern_slice t s off len = intern_slice_h t s off len (hash_slice s off len)
let intern t s = intern_slice t s 0 (String.length s)

(* First '\n' in [s[off], s[stop])], or -1 — C memchr, word-at-a-time
   where the OCaml byte loop is not. The explicit [stop] bound makes it
   safe on a reusable read buffer whose bytes beyond the fill are
   stale. Only lines the walk in [scan_event] does not take go through
   it. *)
external find_newline : string -> int -> int -> int = "sl_ingest_memchr_nl"
[@@noalloc]

(* Byte classes, one L1-resident load instead of four compare-branches
   — this test runs for every byte of every line walk: '\000' for a
   token byte, '\001' for a separator, '\002' for the newline. *)
let class_tbl =
  let b = Bytes.make 256 '\000' in
  Bytes.set b (Char.code ' ') '\001';
  Bytes.set b (Char.code '\t') '\001';
  Bytes.set b (Char.code '\r') '\001';
  Bytes.set b (Char.code '\n') '\002';
  Bytes.unsafe_to_string b

let byte_class s i =
  String.unsafe_get class_tbl (Char.code (String.unsafe_get s i))

let is_space c = String.unsafe_get class_tbl (Char.code c) = '\001'

type error = {
  e_line : int;
  e_trace : string option;
  e_reason : string;
}

let error_to_string e =
  match e.e_trace with
  | Some t -> Printf.sprintf "line %d (trace %s): %s" e.e_line t e.e_reason
  | None -> Printf.sprintf "line %d: %s" e.e_line e.e_reason

(* v*10 + c overflows iff v > max_int/10, or v = max_int/10 and
   c > max_int mod 10 — both bounds are compile-time constants, so the
   digit loop is division-free. *)
let overflow_div = max_int / 10
let overflow_rem = max_int mod 10

type chunk = {
  mutable len : int;
  trace_ids : int array;
  symbols : int array;
}

let create_chunk size =
  if size <= 0 then invalid_arg "Ingest.create_chunk";
  { len = 0; trace_ids = Array.make size 0; symbols = Array.make size 0 }

(* --- Zero-copy line scan ---

   One line, from byte [off] of [s] to its newline or to [stop],
   whichever comes first, in one fused pass that allocates nothing: the
   trace-id walk folds the FNV-1a interner hash in as it finds the
   token bound, and the symbol walk accumulates the strict decimal
   value (digits only: the 0x/0o/0b radix prefixes, '_' separators and
   a leading '+' that [int_of_string_opt] would take are protocol
   errors) — no byte is read twice, and the walk finds the line's end
   itself. For an event line the result is that end (the newline's
   index, or [stop]), with the symbol and the trace id's bounds and
   hash parked in the out-param cells; the caller interns the id once
   it knows the line is whole. Every other line (blank, comment,
   malformed, out-of-alphabet) is [-1], touching neither the interner
   nor the cells — a rejected line never grows the interner, which the
   byte-identity of session snapshots depends on — and [line_error]
   says why. *)
let scan_event t ~alphabet s off stop =
  let i = ref off in
  while !i < stop && byte_class s !i = '\001' do incr i done;
  let t0 = !i in
  let h = ref 0x811c9dc5 in
  while !i < stop && byte_class s !i = '\000' do
    h := (!h lxor Char.code (String.unsafe_get s !i)) * 0x01000193;
    incr i
  done;
  let t1 = !i in
  if t1 = t0 || String.unsafe_get s t0 = '#' then -1  (* blank, comment *)
  else begin
    while !i < stop && byte_class s !i = '\001' do incr i done;
    (* A non-digit ('-', 'x', …), overflow or a missing symbol falls
       back for the exact error. *)
    let d0 = !i in
    let v = ref 0 in
    let ok = ref true in
    while !ok && !i < stop && byte_class s !i = '\000' do
      let c = Char.code (String.unsafe_get s !i) - Char.code '0' in
      if c < 0 || c > 9 then ok := false
      else if !v > overflow_div || (!v = overflow_div && c > overflow_rem)
      then ok := false  (* overflow *)
      else begin
        v := (!v * 10) + c;
        incr i
      end
    done;
    if (not !ok) || !i = d0 then -1
    else begin
      while !i < stop && byte_class s !i = '\001' do incr i done;
      if !i < stop && byte_class s !i <> '\002' then -1  (* extra fields *)
      else if !v >= alphabet then -1
      else begin
        t.r_sym <- !v;
        t.r_id_off <- t0;
        t.r_id_len <- t1 - t0;
        t.r_hash <- !h land max_int;
        !i
      end
    end
  end

(* The cold path, for a line [scan_event] rejected: [None] for a blank
   or comment line (allocation-free), else the trace-id field and the
   reason. A malformed line allocates its error record anyway. *)
let line_error ~alphabet s off len =
  let i = ref off in
  while !i < off + len && is_space (String.unsafe_get s !i) do incr i done;
  if !i = off + len || s.[!i] = '#' then None
  else
    let decimal d =
      d <> "" && String.for_all (fun c -> c >= '0' && c <= '9') d
      && int_of_string_opt d <> None
    in
    match
      String.sub s off len
      |> String.map (fun c -> if is_space c then ' ' else c)
      |> String.split_on_char ' '
      |> List.filter (fun f -> f <> "")
    with
    | [] -> None
    | [ trace ] -> Some (trace, "expected \"trace-id symbol\", got one field")
    | [ trace; sym ] ->
        let tail = String.sub sym 1 (String.length sym - 1) in
        Some
          ( trace,
            if decimal sym then
              Printf.sprintf "symbol %d outside alphabet [0, %d)"
                (int_of_string sym) alphabet
            else if sym.[0] = '-' && decimal tail then "negative symbol"
            else Printf.sprintf "symbol %S is not an integer" sym )
    | trace :: _ ->
        Some (trace, "expected \"trace-id symbol\", got extra fields")

(* --- Incremental scanner over raw read blocks ---

   Feeds arrive as arbitrary byte blocks; complete lines within a block
   are scanned in place, and only a line straddling a block boundary is
   buffered (in [carry]) and re-scanned from the materialized string —
   the cold path, at most once per block. Line numbers count completed
   lines, so errors cite the same 1-based positions no matter where the
   block boundaries fall. A line longer than [max_line] is reported once,
   at the byte that tips it over, and discarded up to its newline, so
   the carry never holds more than [max_line] bytes. *)
type scanner = {
  s_ingest : t;
  s_alphabet : int;
  s_chunk : chunk;
  s_carry : Buffer.t;  (* head of a line split across blocks *)
  mutable s_max_line : int;
  mutable s_oversized : bool;  (* discarding an over-cap line's tail *)
  mutable s_lineno : int;
  mutable s_on_chunk : chunk -> unit;
  mutable s_on_error : error -> unit;
  mutable s_nested_us : float;  (* [on_chunk] time within this block *)
}

let scanner ?(chunk_size = 4096) ?(max_line = max_int) ~alphabet t ~on_chunk
    ~on_error =
  {
    s_ingest = t;
    s_alphabet = alphabet;
    s_chunk = create_chunk chunk_size;
    s_carry = Buffer.create 256;
    s_max_line = max_line;
    s_oversized = false;
    s_lineno = 0;
    s_on_chunk = on_chunk;
    s_on_error = on_error;
    s_nested_us = 0.;
  }

let restart sc ~max_line ~on_chunk ~on_error =
  sc.s_chunk.len <- 0;
  Buffer.reset sc.s_carry;
  sc.s_max_line <- max_line;
  sc.s_oversized <- false;
  sc.s_lineno <- 0;
  sc.s_on_chunk <- on_chunk;
  sc.s_on_error <- on_error

let lines sc = sc.s_lineno

let scan_flush sc =
  let chunk = sc.s_chunk in
  if chunk.len > 0 then begin
    if Obs.is_enabled () then begin
      let t0 = Obs.Clock.now_us () in
      sc.s_on_chunk chunk;
      sc.s_nested_us <- sc.s_nested_us +. (Obs.Clock.now_us () -. t0)
    end
    else sc.s_on_chunk chunk;
    chunk.len <- 0
  end

(* Batch the event line [scan_event] just accepted in [s]. *)
let push sc s =
  let t = sc.s_ingest in
  let id = intern_slice_h t s t.r_id_off t.r_id_len t.r_hash in
  let chunk = sc.s_chunk in
  Array.unsafe_set chunk.trace_ids chunk.len id;
  Array.unsafe_set chunk.symbols chunk.len t.r_sym;
  chunk.len <- chunk.len + 1;
  if chunk.len = Array.length chunk.trace_ids then scan_flush sc

(* One complete line, already counted in [s_lineno]. *)
let scan_handle sc s off len =
  if scan_event sc.s_ingest ~alphabet:sc.s_alphabet s off (off + len) >= 0
  then push sc s
  else
    match line_error ~alphabet:sc.s_alphabet s off len with
    | None -> ()
    | Some (trace, reason) ->
        sc.s_on_error
          { e_line = sc.s_lineno; e_trace = Some trace; e_reason = reason }

let over_cap sc ~line =
  sc.s_on_error
    {
      e_line = line;
      e_trace = None;
      e_reason = Printf.sprintf "line exceeds %d bytes (skipped)" sc.s_max_line;
    }

(* The line ending at a newline: the carry plus [s.[off, off+len)]. *)
let scan_complete sc s off len =
  sc.s_lineno <- sc.s_lineno + 1;
  if sc.s_oversized then sc.s_oversized <- false  (* its tail: resync *)
  else if Buffer.length sc.s_carry + len > sc.s_max_line then begin
    Buffer.clear sc.s_carry;
    over_cap sc ~line:sc.s_lineno
  end
  else if Buffer.length sc.s_carry = 0 then scan_handle sc s off len
  else begin
    (* boundary-straddling line: materialize once and re-scan *)
    Buffer.add_substring sc.s_carry s off len;
    let line = Buffer.contents sc.s_carry in
    Buffer.clear sc.s_carry;
    scan_handle sc line 0 (String.length line)
  end

(* A block's tail without a newline: carry it, or tip over the cap. *)
let scan_partial sc s off len =
  if not sc.s_oversized then
    if Buffer.length sc.s_carry + len > sc.s_max_line then begin
      sc.s_oversized <- true;
      Buffer.clear sc.s_carry;
      over_cap sc ~line:(sc.s_lineno + 1)
    end
    else Buffer.add_substring sc.s_carry s off len

(* The parse stage is the time spent in this call less the nested
   [on_chunk] time, observed once per block: the clock is never read
   per line, and never across the wait between blocks. *)
let scan_string sc s off len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Ingest.scan_string";
  let enabled = Obs.is_enabled () in
  let t0 = if enabled then Obs.Clock.now_us () else 0. in
  sc.s_nested_us <- 0.;
  let stop = off + len in
  let i = ref off in
  while !i < stop do
    (* The common line, a whole event line within the cap and nothing
       carried, is walked once in place; any other line is cut at its
       newline and takes the general path. *)
    let e =
      if sc.s_oversized || Buffer.length sc.s_carry > 0 then -1
      else scan_event sc.s_ingest ~alphabet:sc.s_alphabet s !i stop
    in
    if e >= 0 && e < stop && e - !i <= sc.s_max_line then begin
      sc.s_lineno <- sc.s_lineno + 1;
      push sc s;
      i := e + 1
    end
    else
      let j = find_newline s !i stop in
      if j >= 0 then begin
        scan_complete sc s !i (j - !i);
        i := j + 1
      end
      else begin
        scan_partial sc s !i (stop - !i);
        i := stop
      end
  done;
  if enabled then
    Obs.Metrics.observe h_stage_parse
      (int_of_float ((Obs.Clock.now_us () -. t0 -. sc.s_nested_us) *. 1e3))

(* The scanner never retains a reference into the block past the call
   ([intern_slice] and the error path copy what they keep), so reading
   into one reusable [Bytes.t] and scanning it in place is sound. *)
let scan_bytes sc b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Ingest.scan_bytes";
  scan_string sc (Bytes.unsafe_to_string b) off len

let scan_eof sc =
  if (not sc.s_oversized) && Buffer.length sc.s_carry > 0 then begin
    (* final line without a trailing newline *)
    let line = Buffer.contents sc.s_carry in
    Buffer.clear sc.s_carry;
    sc.s_lineno <- sc.s_lineno + 1;
    scan_handle sc line 0 (String.length line)
  end;
  scan_flush sc

let scan_channel ~alphabet t ic ~on_chunk ~on_error =
  let sc = scanner ~alphabet t ~on_chunk ~on_error in
  let buf = Bytes.create 65536 in
  let continue = ref true in
  while !continue do
    let n = input ic buf 0 (Bytes.length buf) in
    if n = 0 then continue := false else scan_bytes sc buf 0 n
  done;
  scan_eof sc

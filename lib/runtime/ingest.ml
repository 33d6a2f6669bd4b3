(* Trace ingestion: the line protocol is one event per line,

     trace-id symbol

   where trace-id is any whitespace-free token and symbol a decimal
   letter index in [0, alphabet). Blank lines and '#' comments are
   skipped. Trace ids are interned to the dense ints the engine indexes
   by.

   The incremental [scanner] is the one line framer: [slc monitor] and
   every serve connection read through it. It walks the raw read
   buffer in place, from one 8-byte load per line: a line with an id
   of up to 7 bytes and a one-digit symbol is whole after that word and
   two byte loads; any other line carries on a byte at a time, with a
   strict decimal digit loop for the symbol. Trace-id interning probes
   by a key computed over the byte slice (a short id's packed bytes, a
   longer one's FNV-1a hash) — a string is materialized only on first
   sight of a new id (or on the cold error path). The QCheck pins in
   test_runtime hold it byte-for-byte equal to a line-at-a-time
   reference reader (test/reference, [Ingest_ref]), with and without a
   line cap, over hostile streams and ids of every length from 1 to 24
   bytes, at every block boundary. *)

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
   empty), resolved against [names]. An id of at most [short_max] (7)
   bytes is keyed by its bytes packed into one int, [(bytes lsl 3) lor
   len], low byte first: the key times one odd constant, top bits
   taken, is its home slot, and a candidate is confirmed by its length
   and one masked word load of its name (a name that short fills one
   word of its heap block). A longer id is homed by the FNV-1a hash of
   its bytes and confirmed by [eq_slice]. Lookups of known ids allocate
   nothing — the point of the zero-copy path — and [intern] on a whole
   string is the same probe.

   The slot stays one int: storing each id's key beside it (a pair
   table) saves the name load on a hit, but costs a word per slot for
   ever, and churn never frees an id (~+20% daemon RSS on serve-churn,
   measured). *)
type t = {
  mutable names : string array;  (* id -> name, dense in [0, n) *)
  mutable n : int;
  mutable slots : int array;  (* open addressing: 0 = empty, else id+1 *)
  mutable mask : int;  (* Array.length slots - 1, power of two minus 1 *)
  mutable shift : int;  (* 63 - log2 (Array.length slots) *)
  mutable r_sym : int;
  mutable r_id_off : int;
  mutable r_id_len : int;
  mutable r_hash : int;
      (* the last event line [scan_event] accepted: its symbol, its
         trace id's bounds and key or hash — out-param cells, so the
         hot path returns them without allocating *)
}

let create () =
  { names = [||]; n = 0; slots = Array.make 64 0; mask = 63; shift = 57;
    r_sym = 0; r_id_off = 0; r_id_len = 0; r_hash = 0 }

let ntraces t = t.n

let name t id =
  if id < 0 || id >= t.n then invalid_arg "Ingest.name";
  t.names.(id)

let names t = Array.sub t.names 0 t.n

(* FNV-1a over a byte slice, continued from hash [h]. *)
let fnv h s off len =
  let h = ref h in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193
  done;
  !h

let fnv_basis = 0x811c9dc5

(* FNV-1a, truncated to a nonnegative OCaml int. *)
let hash_slice s off len = fnv fnv_basis s off len land max_int

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

(* Ids this long or shorter are keyed by their packed bytes (none on a
   32-bit host, whose ints hold too few). [word_step]: the host loads a
   string's bytes low byte first into a 64-bit word, so a masked word
   load is a packed key and [scan_event] may start with one. *)
let short_max = if Sys.word_size = 64 then 7 else 0
let word_step = Sys.word_size = 64 && not Sys.big_endian

(* The low [n] bytes of a word, n <= 7. *)
let low_bytes n = (1 lsl (8 * n)) - 1

(* [s.[off, off+len)], len <= [short_max], packed low byte first: one
   masked word load where that load stays inside the string's block,
   else a byte loop. *)
let short_bytes s off len =
  if word_step && off + 8 <= block_end s then
    Int64.to_int (get64u s off) land low_bytes len
  else begin
    let b = ref 0 in
    for i = off + len - 1 downto off do
      b := (!b lsl 8) lor Char.code (String.unsafe_get s i)
    done;
    !b
  end

let short_key s off len = (short_bytes s off len lsl 3) lor len

(* The interner's key of an id slice: the packed bytes of a short id,
   the FNV-1a hash of a longer one. *)
let slice_key s off len =
  if len <= short_max then short_key s off len else hash_slice s off len

(* The home slot of an id by its key or hash: a short id's key mixed by
   one multiply (Fibonacci hashing; the top bits of the product depend
   on every bit of the key), a longer id's hash masked. *)
let home t len h =
  if len <= short_max then (h * 0x1E3779B97F4A7C15) lsr t.shift
  else h land t.mask

(* Index of the slot holding the slice's id, or of the first empty slot
   of its probe sequence; [h] is the slice's [slice_key]. The table is kept
   under half full, so the probe terminates. *)
let find_slot t s off len h =
  let mask = t.mask in
  let i = ref (home t len h) in
  let res = ref (-1) in
  if len <= short_max then begin
    let bytes = h lsr 3 and low = low_bytes len in
    while !res < 0 do
      let v = Array.unsafe_get t.slots !i in
      if v = 0 then res := !i
      else begin
        let nm = Array.unsafe_get t.names (v - 1) in
        if String.length nm = len
           && (if word_step then Int64.to_int (get64u nm 0) land low
               else short_bytes nm 0 len)
              = bytes
        then res := !i
        else i := (!i + 1) land mask
      end
    done
  end
  else
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

let home_slot t nm =
  let len = String.length nm in
  home t len (slice_key nm 0 len)

let rehash t =
  let ncap = 2 * (t.mask + 1) in
  t.slots <- Array.make ncap 0;
  t.mask <- ncap - 1;
  t.shift <- t.shift - 1;
  for id = 0 to t.n - 1 do
    let i = ref (home_slot t t.names.(id)) in
    while t.slots.(!i) <> 0 do
      i := (!i + 1) land t.mask
    done;
    t.slots.(!i) <- id + 1
  done

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

let intern_slice t s off len = intern_slice_h t s off len (slice_key s off len)
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
   whichever comes first, in one fused pass that allocates nothing.

   The pass starts with one 8-byte load (on a 64-bit little-endian
   host; a big-endian one skips this step). The has-less-than trick
   finds the word's first byte <= 0x20, where every separator and the
   newline lie. A line [ID SP D NL] with a 1-7 byte id — the common
   event line — is then whole after two more byte loads: the symbol and
   the newline. The same word, masked to the id's bytes, is the id's
   packed interner key. Any other line carries on with the byte walk
   from where the word leaves off: the trace-id walk folds the FNV-1a
   interner hash in as it finds the token bound, and the symbol walk
   accumulates the strict decimal value (digits only: the 0x/0o/0b
   radix prefixes, '_' separators and a leading '+' that
   [int_of_string_opt] would take are protocol errors) — no byte is
   read twice, and the walk finds the line's end itself.

   For an event line the result is that end (the newline's index, or
   [stop]), with the symbol and the trace id's bounds and key parked in
   the out-param cells; the caller interns the id once it knows the
   line is whole. Every other line (blank, comment, malformed,
   out-of-alphabet) is [-1], touching neither the interner nor the
   cells — a rejected line never grows the interner, which the
   byte-identity of session snapshots depends on — and [line_error]
   says why. *)

(* The line after its trace id [s.[t0, t1)], whose interner key is [key]:
   separators, the symbol, separators, then the newline or [stop]. *)
let scan_symbol t ~alphabet s t0 t1 stop key =
  let i = ref t1 in
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
      t.r_hash <- key;
      !i
    end
  end

(* The byte walk of a trace id starting at [t0], resumed at [i] with
   the FNV-1a hash [h] of [s.[t0, i)]. *)
let scan_token t ~alphabet s t0 i stop h =
  let i = ref i and h = ref h in
  while !i < stop && byte_class s !i = '\000' do
    h := (!h lxor Char.code (String.unsafe_get s !i)) * 0x01000193;
    incr i
  done;
  let t1 = !i in
  if t1 = t0 || String.unsafe_get s t0 = '#' then -1  (* blank, comment *)
  else
    let len = t1 - t0 in
    scan_symbol t ~alphabet s t0 t1 stop
      (if len <= short_max then short_key s t0 len else !h land max_int)

(* The byte walk of a whole line: leading separators, then the id. *)
let scan_bytewise t ~alphabet s off stop =
  let i = ref off in
  while !i < stop && byte_class s !i = '\001' do incr i done;
  scan_token t ~alphabet s !i !i stop fnv_basis

let scan_event t ~alphabet s off stop =
  if word_step && off + 8 <= stop then begin
    let w = get64u s off in
    (* bit 8k set where byte k is <= 0x20: exact at the first such byte,
       while a borrow out of it may mark later ones too *)
    let lt =
      Int64.to_int
        (Int64.shift_right_logical
           (Int64.logand
              (Int64.logand (Int64.sub w 0x2121212121212121L) (Int64.lognot w))
              0x8080808080808080L)
           7)
    in
    if lt = 0 then
      (* eight token bytes: an id of 8 bytes or more *)
      scan_token t ~alphabet s off (off + 8) stop (fnv fnv_basis s off 8)
    else begin
      let x = lt land -lt in
      let p = (x * 0x0001020304050607) lsr 56 in  (* that byte's index *)
      if p = 0 || byte_class s (off + p) = '\000' then
        (* a leading separator or a control byte in the id *)
        scan_bytewise t ~alphabet s off stop
      else if String.unsafe_get s off = '#' then -1  (* comment *)
      else begin
        let key = ((Int64.to_int w land (x - 1)) lsl 3) lor p in
        let e = off + p + 2 in
        let d =
          if e < stop && String.unsafe_get s e = '\n'
             && String.unsafe_get s (off + p) = ' '
          then Char.code (String.unsafe_get s (e - 1)) - Char.code '0'
          else -1
        in
        if d >= 0 && d <= 9 && d < alphabet then begin
          t.r_sym <- d;
          t.r_id_off <- off;
          t.r_id_len <- p;
          t.r_hash <- key;
          e
        end
        else scan_symbol t ~alphabet s off (off + p) stop key
      end
    end
  end
  else scan_bytewise t ~alphabet s off stop

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

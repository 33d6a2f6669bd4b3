(* NDJSON record rendering. Hand-rolled like Verdict.to_json — no JSON
   dependency; fixed field order keeps the bytes stable.

   The [add_*] functions append straight into a caller's buffer — the
   serving hot path renders a whole chunk's records into one reusable
   per-connection scratch buffer instead of allocating a string per
   record. The string renderers below are thin wrappers over them, so
   there is exactly one source of truth for every record's bytes. *)

(* True when no byte of [s] from [i] on needs escaping. *)
let rec plain s i =
  i >= String.length s
  ||
  match String.unsafe_get s i with
  | '"' | '\\' | '\000' .. '\031' -> false
  | _ -> plain s (i + 1)

(* Trace and prop names almost never need escaping: those are copied
   with one blit; the rest take the per-byte loop. *)
let add_escape buf s =
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

let escape s =
  let buf = Buffer.create (String.length s) in
  add_escape buf s;
  Buffer.contents buf

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

let add_hello buf ~version ~props ~monitors ~fingerprint =
  Buffer.add_string buf
    "{\"type\": \"hello\", \"schema\": \"sl-monitor-report/1\", \
     \"version\": \"";
  add_escape buf version;
  Buffer.add_string buf "\", \"props\": ";
  add_int buf props;
  Buffer.add_string buf ", \"monitors\": ";
  add_int buf monitors;
  Buffer.add_string buf ", \"fingerprint\": \"";
  add_escape buf fingerprint;
  Buffer.add_string buf "\"}\n"

let add_verdict_head buf ~trace ~prop =
  Buffer.add_string buf "{\"type\": \"verdict\", \"trace\": \"";
  add_escape buf trace;
  Buffer.add_string buf "\", \"prop\": \"";
  add_escape buf prop;
  Buffer.add_string buf "\", \"verdict\": \""

let add_verdict_violation buf ~trace ~prop ~position ~cause =
  add_verdict_head buf ~trace ~prop;
  Buffer.add_string buf "violation\", \"position\": ";
  add_int buf position;
  Buffer.add_string buf ", \"cause\": \"";
  Buffer.add_string buf cause;
  Buffer.add_string buf "\"}\n"

let add_verdict_admissible buf ~trace ~prop ~cause =
  add_verdict_head buf ~trace ~prop;
  Buffer.add_string buf "admissible\", \"cause\": \"";
  Buffer.add_string buf cause;
  Buffer.add_string buf "\"}\n"

let add_verdict_vacuous buf ~trace ~prop =
  add_verdict_head buf ~trace ~prop;
  Buffer.add_string buf "vacuous\", \"cause\": \"eof\"}\n"

let add_error buf ~line ~trace ~reason =
  Buffer.add_string buf "{\"type\": \"error\", \"line\": ";
  add_int buf line;
  (match trace with
  | Some t ->
      Buffer.add_string buf ", \"trace\": \"";
      add_escape buf t;
      Buffer.add_string buf "\""
  | None -> ());
  Buffer.add_string buf ", \"reason\": \"";
  add_escape buf reason;
  Buffer.add_string buf "\"}\n"

let add_summary buf ~traces ~events ~props ~monitors ~tripped
    ~retired_admissible ~live ~conn_events ~conn_errors =
  Buffer.add_string buf "{\"type\": \"summary\", \"traces\": ";
  add_int buf traces;
  Buffer.add_string buf ", \"events\": ";
  add_int buf events;
  Buffer.add_string buf ", \"props\": ";
  add_int buf props;
  Buffer.add_string buf ", \"monitors\": ";
  add_int buf monitors;
  Buffer.add_string buf ", \"tripped\": ";
  add_int buf tripped;
  Buffer.add_string buf ", \"retired_admissible\": ";
  add_int buf retired_admissible;
  Buffer.add_string buf ", \"live\": ";
  add_int buf live;
  Buffer.add_string buf ", \"conn_events\": ";
  add_int buf conn_events;
  Buffer.add_string buf ", \"conn_errors\": ";
  add_int buf conn_errors;
  Buffer.add_string buf "}\n"

let render add =
  let buf = Buffer.create 128 in
  add buf;
  Buffer.contents buf

let hello ~version ~props ~monitors ~fingerprint =
  render (fun buf -> add_hello buf ~version ~props ~monitors ~fingerprint)

let verdict_violation ~trace ~prop ~position ~cause =
  render (fun buf -> add_verdict_violation buf ~trace ~prop ~position ~cause)

let verdict_admissible ~trace ~prop ~cause =
  render (fun buf -> add_verdict_admissible buf ~trace ~prop ~cause)

let verdict_vacuous ~trace ~prop =
  render (fun buf -> add_verdict_vacuous buf ~trace ~prop)

let error ~line ~trace ~reason =
  render (fun buf -> add_error buf ~line ~trace ~reason)

let summary ~traces ~events ~props ~monitors ~tripped ~retired_admissible
    ~live ~conn_events ~conn_errors =
  render (fun buf ->
      add_summary buf ~traces ~events ~props ~monitors ~tripped
        ~retired_admissible ~live ~conn_events ~conn_errors)

(* NDJSON record rendering in the one-line layout of Sl_json.Json,
   with fixed field order so the bytes are stable.

   The records are written straight into a caller's buffer through the
   shared escaper and integer printer, with no Json.t tree in between:
   the serving hot path renders a whole chunk's records into one
   reusable per-connection scratch buffer without allocating per
   record. *)

module Json = Sl_json.Json

let add_hello buf ~version ~props ~monitors ~fingerprint =
  Buffer.add_string buf
    "{\"type\": \"hello\", \"schema\": \"sl-monitor-report/1\", \
     \"version\": \"";
  Json.add_escaped buf version;
  Buffer.add_string buf "\", \"props\": ";
  Json.add_int buf props;
  Buffer.add_string buf ", \"monitors\": ";
  Json.add_int buf monitors;
  Buffer.add_string buf ", \"fingerprint\": \"";
  Json.add_escaped buf fingerprint;
  Buffer.add_string buf "\"}\n"

let add_verdict_head buf ~trace ~prop =
  Buffer.add_string buf "{\"type\": \"verdict\", \"trace\": \"";
  Json.add_escaped buf trace;
  Buffer.add_string buf "\", \"prop\": \"";
  Json.add_escaped buf prop;
  Buffer.add_string buf "\", \"verdict\": \""

let add_verdict_violation buf ~trace ~prop ~position ~cause =
  add_verdict_head buf ~trace ~prop;
  Buffer.add_string buf "violation\", \"position\": ";
  Json.add_int buf position;
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
  Json.add_int buf line;
  (match trace with
  | Some t ->
      Buffer.add_string buf ", \"trace\": \"";
      Json.add_escaped buf t;
      Buffer.add_string buf "\""
  | None -> ());
  Buffer.add_string buf ", \"reason\": \"";
  Json.add_escaped buf reason;
  Buffer.add_string buf "\"}\n"

let add_summary buf ~traces ~events ~props ~monitors ~tripped
    ~retired_admissible ~live ~conn_events ~conn_errors =
  Buffer.add_string buf "{\"type\": \"summary\", \"traces\": ";
  Json.add_int buf traces;
  Buffer.add_string buf ", \"events\": ";
  Json.add_int buf events;
  Buffer.add_string buf ", \"props\": ";
  Json.add_int buf props;
  Buffer.add_string buf ", \"monitors\": ";
  Json.add_int buf monitors;
  Buffer.add_string buf ", \"tripped\": ";
  Json.add_int buf tripped;
  Buffer.add_string buf ", \"retired_admissible\": ";
  Json.add_int buf retired_admissible;
  Buffer.add_string buf ", \"live\": ";
  Json.add_int buf live;
  Buffer.add_string buf ", \"conn_events\": ";
  Json.add_int buf conn_events;
  Buffer.add_string buf ", \"conn_errors\": ";
  Json.add_int buf conn_errors;
  Buffer.add_string buf "}\n"

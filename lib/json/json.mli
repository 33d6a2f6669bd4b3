(** The project's one JSON format: every JSON byte the tools write —
    the [sl-monitor-report/1] report, the served NDJSON records,
    [sl-status/1] bodies, trace events — goes
    through the escaper and writer here, and everything read back goes
    through {!parse}. No dependencies.

    Numbers keep their exact text, so a writer chooses its format
    ([%d], [%.1f], ...) once and {!parse} followed by {!to_string}
    gives back the same bytes. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** the number's text, a JSON number token *)
  | Str of string  (** raw bytes; escaped on output *)
  | Arr of t list
  | Obj of (string * t) list  (** members in document order *)

(** {1 Buffer primitives}

    For writers that append straight into a caller's buffer without
    building a {!t} — the serving hot path renders records this way. *)

val add_escaped : Buffer.t -> string -> unit
(** A JSON string body, without the quotes: double quote and
    backslash are backslash-escaped, control bytes become [\u00XX],
    every other byte is copied. A string with nothing to escape is
    copied in one blit. *)

val add_int : Buffer.t -> int -> unit
(** The bytes of [string_of_int n], written without allocating. *)

(** {1 Constructors} *)

val int : int -> t
val fixed : int -> float -> t
(** [fixed d x] is [x] printed with [%.{d}f]. *)

val opt : ('a -> t) -> 'a option -> t
(** [None] is [Null]. *)

(** {1 Writer} *)

type layout =
  | Line  (** the whole value on one line: [{"k": v, "l": [1, 2]}] *)
  | Block
      (** each member of the top-level object on its own line, and each
          element of an array that is the whole value or a top-level
          member's value on its own line, indented two spaces per level;
          everything deeper is one line. Such an array breaks even when
          empty: a top-level member's [[]] prints as ["[\n  ]"]. *)

val to_string : ?layout:layout -> t -> string
(** The value as a document, followed by one newline. [layout]
    defaults to [Line]. Linear in the output size. *)

(** {1 Reader} *)

val parse : string -> (t, string) result
(** Whole-string parse; surrounding whitespace is allowed, any other
    trailing byte is an error. Numbers must match the JSON grammar;
    strings decode the standard escapes, including [\uXXXX] with
    surrogate pairs, to UTF-8. *)

val member : string -> t -> t option
(** Object member by key ([None] on non-objects and absent keys). *)

val str : t -> string option
val num : t -> float option

val int_ : t -> int option
(** Exact: [Some n] only when the number's text is an integer that fits
    an OCaml [int]. *)

val bool_ : t -> bool option
val arr : t -> t list option

(** Endian-stable binary serialization for the [sl-artifact/1] format.

    Compiled monitors, Büchi automata and CSR digraphs are flat int
    arrays, so an artifact is a fixed header (magic, format version,
    payload kind), a payload of length-prefixed primitives, and an
    FNV-1a checksum trailer. Every multi-byte value is little-endian
    regardless of host, so artifacts written on one machine load on any
    other.

    The reading side is written for hostile bytes in the weak sense a
    warm-start cache needs: any truncation, bit flip, version skew or
    kind mismatch raises {!Corrupt}, which cache layers translate into
    a miss — never a crash, never a torn value. (Integrity is the
    checksum's job; artifacts are not authenticated.) *)

exception Corrupt of string
(** Raised by every decoding entry point on malformed input. *)

val format_version : int
(** The [sl-artifact] format version this build reads and writes
    (currently [1]). Decoding any other version raises {!Corrupt} —
    the cache treats that as a miss and recompiles. *)

(** {1 Payload kinds} *)

val kind_packed_dfa : int
val kind_buchi : int
val kind_digraph : int
val kind_pack : int
val kind_session : int

(** {1 Writing} *)

type writer

val writer : unit -> writer

val put_int : writer -> int -> unit
(** Full-width OCaml int, stored as 8 little-endian bytes. *)

val put_bool : writer -> bool -> unit
val put_string : writer -> string -> unit
val put_int_array : writer -> int array -> unit
val put_bool_array : writer -> bool array -> unit

val to_artifact : kind:int -> writer -> string
(** Frame the written payload as one [sl-artifact/1] blob:
    magic + version + kind, payload, checksum trailer. *)

val publish : path:string -> string -> unit
(** Atomic file write: a fresh temp file in [path]'s directory, renamed
    over [path], so a reader sees the old file or the new one, never a
    torn one. On any failure, the rename's included, the temp file is
    removed and the [Sys_error] propagates. *)

(** {1 Reading} *)

type reader

val get_int : reader -> int
val get_bool : reader -> bool
val get_string : reader -> string
val get_int_array : reader -> int array
val get_bool_array : reader -> bool array

val remaining : reader -> int
(** Payload bytes not yet consumed. Decoders bound element counts by
    this {e before} allocating ([n] elements need at least [n] payload
    bytes), so a forged count fails as {!Corrupt} rather than as an
    attempted huge allocation. *)

val expect_end : reader -> unit
(** Trailing garbage after a payload is corruption too.
    @raise Corrupt if the reader has bytes left. *)

val of_artifact : string -> int * reader
(** Validate magic, version and checksum; returns the payload kind and
    a reader positioned at the payload start.
    @raise Corrupt on any mismatch. *)

val of_artifact_kind : kind:int -> string -> reader
(** {!of_artifact} that additionally pins the payload kind. *)

(** {1 Hashing} *)

val fnv64 : string -> int64
(** FNV-1a 64-bit hash of a string — the checksum primitive, also used
    by the compile cache to derive stable file names from source keys. *)

val fnv64_hex : string -> string
(** {!fnv64} rendered as 16 lowercase hex digits. *)

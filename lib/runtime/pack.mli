(** Monitor packs: a whole compiled registry as one artifact.

    [slc pack] compiles a property file offline into a single
    [sl-artifact/1] blob (kind {!Sl_core.Wire.kind_pack}) holding the
    alphabet, every property (name + monitor index, hash-consing
    preserved) and every distinct packed monitor. A serve-phase process
    — [slc unpack] today, the ROADMAP's monitoring daemon tomorrow —
    loads it back in microseconds, with the same
    validate-or-reject-everything discipline as the compile cache:
    {!read} returns [Error] on any corruption, never a torn or
    half-valid pack. *)

type t = {
  alphabet : int;
  props : (string * int) array;
      (** property name and its index into [monitors], in registry
          (= source) order; hash-consed properties share an index *)
  monitors : Packed_dfa.t array;  (** distinct compiled monitors *)
}

val of_registry : Registry.t -> t
(** Snapshot a compiled registry (formula- and automaton-sourced
    properties alike — the pack stores compiled tables, not sources). *)

val encode : Sl_core.Wire.writer -> t -> unit
val decode : Sl_core.Wire.reader -> t
(** @raise Sl_core.Wire.Corrupt on malformed bytes, dangling monitor
    indices, or monitors whose alphabet differs from the pack's. *)

val to_artifact : t -> string
val of_artifact : string -> (t, string) result
(** [Error] carries the corruption reason, for CLI display. *)

val write : t -> path:string -> unit
(** Atomic publish ({!Sl_core.Wire.publish}): a concurrent reader sees
    the old pack or the new pack, never a torn one, and a failure
    leaves no temp file. @raise Sys_error on I/O failure. *)

val read : path:string -> (t, string) result

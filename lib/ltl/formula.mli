(** Linear Temporal Logic formulas.

    Syntax used by the paper's Section 2.3 examples: next-time [X],
    eventually [F], always [G], until [U], release [R], plus the Boolean
    connectives. Propositions are named. *)

type t =
  | True
  | False
  | Prop of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Next of t
  | Until of t * t
  | Release of t * t
  | Eventually of t
  | Always of t

(** {1 Convenience constructors} *)

val prop : string -> t
val neg : t -> t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val ( ==> ) : t -> t -> t
val x : t -> t
val f : t -> t
val g : t -> t
val u : t -> t -> t
val r : t -> t -> t

(** {1 Structure} *)

val equal : t -> t -> bool
val compare : t -> t -> int
val size : t -> int
(** Number of AST nodes. *)

val propositions : t -> string list
(** Sorted, deduplicated proposition names. *)

val subformulas : t -> t list
(** All distinct subformulas, including the formula itself. *)

(** {1 Core form}

    The translation and the semantics work on a reduced core: [True],
    [Prop], [Not], [And], [Next], [Until]. Everything else is defined
    notation ([F f = true U f], [G f = ¬F¬f], [f R g = ¬(¬f U ¬g)], …),
    exactly as in the paper's references. *)

type core = private
  | CTrue
  | CProp of string
  | CNot of core
  | CAnd of core * core
  | CNext of core
  | CUntil of core * core

val to_core : t -> core
val core_equal : core -> core -> bool
val core_subformulas : core -> core list
(** Distinct subformulas of the core form (the positive closure). *)

(** {1 Syntax} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val parse : string -> (t, string) result
(** Concrete syntax: [true], [false], identifiers, [! f], [X f], [F f],
    [G f], [f & g], [f | g], [f -> g], [f U g], [f R g], parentheses.
    Precedence (loosest first): [->] (right), [|], [&], [U]/[R] (right),
    prefix operators. *)

val parse_exn : string -> t
(** @raise Invalid_argument on a syntax error. *)

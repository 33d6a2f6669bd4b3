(** Finite alphabets.

    Symbols are integers [0 .. size - 1]; an alphabet attaches print names.
    The paper fixes a nonempty alphabet [Σ] throughout; we thread this value
    through automata so that languages over different alphabets cannot be
    confused. *)

type t

val make : string array -> t
(** [make names] is the alphabet whose symbol [i] prints as [names.(i)].
    @raise Invalid_argument on an empty array. *)

val binary : t
(** The two-symbol alphabet [{a, b}] used by all of Rem's examples: symbol
    [0] is ["a"], symbol [1] is ["b"] (standing for "anything other than
    a"). *)

val of_subsets : string list -> t
(** The alphabet [2^AP] of valuations over atomic propositions, as used by
    LTL semantics: symbol [i] denotes the set of propositions whose bit is
    set in [i], printed like ["{p,q}"]. Proposition [j] is bit [1 lsl j]. *)

val size : t -> int
val label : t -> int -> string
val symbols : t -> int list
val mem : t -> int -> bool
val equal : t -> t -> bool

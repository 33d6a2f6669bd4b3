(** The lattices used throughout the paper, pre-built with stable element
    names.

    Element indices are fixed and documented per lattice so that tests and
    benches can refer to the paper's labels ([a], [b], [c], [s], [z], …)
    directly. *)

(** {1 Figure 1 — the pentagon N5}

    The Hasse diagram of Figure 1: [bot < a < b < top], [bot < c < top],
    with [c] incomparable to [a] and [b]. It is the minimal non-modular
    lattice; Lemma 6 shows element [a] admits no safety/liveness
    decomposition under the closure mapping [a] to [b]. *)

val n5 : Lattice.t
val n5_bot : Lattice.elt
val n5_a : Lattice.elt
val n5_b : Lattice.elt
val n5_c : Lattice.elt
val n5_top : Lattice.elt

val n5_label : Lattice.elt -> string
(** Paper labels: ["0"], ["a"], ["b"], ["c"], ["1"]. *)

(** {1 Figure 2 — the diamond M3}

    The Hasse diagram of Figure 2: bottom element [a], three pairwise
    incomparable atoms [s], [b], [z], and a top. Modular but not
    distributive; the paper uses it to show Theorem 7 needs
    distributivity. *)

val m3 : Lattice.t
val m3_a : Lattice.elt (** bottom; the paper's element [a]. *)

val m3_s : Lattice.elt (** the paper's [s = cl.a]. *)

val m3_b : Lattice.elt
val m3_z : Lattice.elt
val m3_top : Lattice.elt

val m3_label : Lattice.elt -> string
(** Paper labels: ["a"], ["s"], ["b"], ["z"], ["1"]. *)

(** {1 Stock lattices} *)

val chain : int -> Lattice.t
(** Total order on [n >= 1] elements. Distributive; complemented only for
    [n <= 2]. *)

val boolean : int -> Lattice.t
(** Powerset of an [n]-element set: the prototypical Boolean algebra;
    subsets are encoded as bit masks. *)

val diamond : int -> Lattice.t
(** [M_k]: bottom, [k] pairwise-incomparable atoms, top. [diamond 3 = M3]
    up to labels. Modular for all [k]; distributive iff [k <= 1]...
    (for [k = 2] this is the Boolean square). *)

val divisor : int -> Lattice.t * int array
(** Divisors of [n] under divisibility with gcd/lcm as meet/join; returns
    the divisor denoted by each element. Distributive; Boolean iff [n] is
    squarefree. *)

val partition : int -> Lattice.t
(** Partition lattice of an [n]-element set ([n <= 5] recommended: Bell
    numbers grow fast), ordered by refinement. Complemented but not modular
    for [n >= 4] — a natural "big" test subject for the paper's
    hypotheses. *)

val all_small : (string * Lattice.t) list
(** A corpus of named lattices used by the exhaustive theorem checks:
    chains, Booleans, N5, M3, diamonds, divisor lattices, small partition
    lattices, and a few products. *)

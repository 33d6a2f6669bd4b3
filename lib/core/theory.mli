(** The paper's lattice-theoretic characterization of safety and liveness,
    stated generically (Section 3).

    Everything here is parameterized by an abstract lattice signature so the
    same code runs over

    - the finite lattices of [Sl_lattice] (exhaustively checkable),
    - the Boolean algebra of ω-regular languages backed by Büchi automata
      ([Sl_buchi.Language_lattice]),
    - the Boolean algebra of ω-regular tree languages backed by Rabin
      automata.

    The modularity/Boolean hypotheses are the {e caller's} obligation (the
    signatures cannot express them); the [Laws] functor provides sampled
    checks, and [Sl_lattice] provides exhaustive ones for finite lattices. *)

(** Algebraic view of a lattice (the paper sticks to the algebraic view):
    a carrier with meet and join satisfying the lattice laws, plus 0 and 1.
    [leq] must agree with [meet]: [leq a b <=> equal (meet a b) a]. *)
module type LATTICE = sig
  type t

  val equal : t -> t -> bool
  val leq : t -> t -> bool
  val meet : t -> t -> t
  val join : t -> t -> t
  val bot : t
  val top : t
  val pp : Format.formatter -> t -> unit
end

(** A lattice in which complements can be computed. [complement a] returns
    {e some} [b] with [a ^ b = 0] and [a v b = 1], or [None] when [a] has no
    complement. (In a distributive lattice the complement is unique; the
    paper's Theorem 3 only needs one complement of [cl2 a].) *)
module type COMPLEMENTED = sig
  include LATTICE

  val complement : t -> t option
end

(** A safety/liveness decomposition of an element [a]: [a = safety ^
    liveness] where [safety] is [cl1]-closed and [liveness] is [cl2]-dense
    (Theorem 3 orientation: safety from [cl1], liveness from [cl2]). *)
type 'a decomposition = { element : 'a; safety : 'a; liveness : 'a }

module Make (L : COMPLEMENTED) : sig
  type closure = L.t -> L.t
  (** Closure operators are passed as plain functions; validity (extensive,
      idempotent, monotone) is the caller's obligation, checkable on a
      finite lattice with [Sl_lattice.Closure.validate]. *)

  (** {1 Safety and liveness elements} *)

  val is_safety : closure -> L.t -> bool
  (** [a = cl a] — a {e cl-safety element} (closed). *)

  val is_liveness : closure -> L.t -> bool
  (** [cl a = 1] — a {e cl-liveness element} (dense). *)

  (** {1 The decomposition (Theorems 2 and 3)} *)

  val decompose : ?cl1:closure -> cl2:closure -> L.t -> L.t decomposition option
  (** [decompose ~cl1 ~cl2 a] is the paper's construction:
      [safety = cl1 a] and [liveness = a v b] for [b] a complement of
      [cl2 a]. With [cl1] omitted, [cl1 = cl2] (Theorem 2). Returns [None]
      when [cl2 a] has no complement — exactly the hypothesis the paper
      needs complementedness for. The meet identity
      [a = safety ^ liveness] is guaranteed by Theorem 3 {e provided} the
      lattice is modular and [cl1 x <= cl2 x] pointwise; {!verify} checks
      it. *)

  val verify : cl1:closure -> cl2:closure -> L.t decomposition -> (string * L.t) list
  (** Check the three claims of Theorem 3 on a decomposition: the meet
      recovers the element, the safety part is [cl1]-closed, the liveness
      part is [cl2]-dense. Returns the failing claims (empty = verified). *)

  (** {1 Lemmas of Section 3} *)

  val lemma3_holds : closure -> L.t -> L.t -> bool
  (** [cl (a ^ b) <= cl a ^ cl b]. *)

  val lemma4_holds : cl:closure -> a:L.t -> b:L.t -> bool
  (** If [b] is a complement of [cl a] then [a v b] is a cl-liveness
      element. (Checks the conclusion; the caller supplies a genuine
      complement.) *)

  val lemma5_holds : L.t -> L.t -> L.t -> bool
  (** [c] a complement of [b] and [a <= b] imply [a ^ c = 0]. *)

  (** {1 Extremal theorems (Theorems 6 and 7)} *)

  val theorem6_bound : cl1:closure -> a:L.t -> s:L.t -> bool
  (** Hypotheses: [s = cl1 s] or [s = cl2 s] with [cl1 <= cl2] pointwise,
      and [a = s ^ z] for some [z]. Conclusion checked here: [cl1 a <= s] —
      [cl1 a] is the {e strongest} safety element usable in any
      decomposition of [a]. *)

  val theorem7_bound : a:L.t -> b:L.t -> z:L.t -> bool
  (** Hypotheses (distributive lattice): [a = s ^ z] with [s] a safety
      element and [b] a complement of [cl1 a]. Conclusion checked:
      [z <= a v b] — [a v b] is the {e weakest} liveness element usable. *)

  val is_machine_closed : cl:closure -> spec:L.t -> safety:L.t -> bool
  (** The Abadi–Lamport connection the paper draws after Theorem 6: a pair
      (safety, spec) is machine closed when [safety = cl spec] — the safety
      part specifies no more safety than the spec itself. *)

  (** {1 Theorem 5 (impossibility)} *)

  val theorem5_hypotheses : cl1:closure -> cl2:closure -> L.t -> bool
  (** [cl2 a = 1] and [cl1 a < 1]: under these, no decomposition of [a]
      into a [cl2]-safety and [cl1]-liveness element exists. The exhaustive
      refutation for finite lattices lives in {!Finite_check}. *)

  val theorem5_refutes : cl1:closure -> cl2:closure -> a:L.t -> s:L.t -> l:L.t -> bool
  (** [true] iff the candidate pair [(s, l)] fails to be a counterexample
      to Theorem 5 — i.e. it is {e not} simultaneously [cl2]-safe, [cl1]-live
      and meeting back to [a]. A proof-by-exhaustion driver calls this on
      every pair. *)

  (** {1 Diagnostics} *)

  val gumm_join_preservation_violation : closure -> sample:L.t list -> (L.t * L.t) option
  (** Gumm's framework additionally requires [cl (a v b) = cl a v cl b].
      The paper's point (contribution 3) is that this is {e not} needed;
      this probe finds sample pairs where it fails, demonstrating
      closures covered by the paper but not by Gumm/topology. *)
end

(** Boolean-style operations on Büchi automata.

    The paper uses closure of Büchi-definable languages under union,
    intersection and complementation to build the Boolean algebra that
    Theorem 3 is instantiated at; [union] and [intersect] live here,
    complementation in {!Complement}. *)

val union : Buchi.t -> Buchi.t -> Buchi.t
(** Disjoint union behind a fresh start state:
    [L (union a b) = L a ∪ L b]. Alphabets must agree. *)

val intersect : Buchi.t -> Buchi.t -> Buchi.t
(** Degeneralized product (two-track construction with a phase flag):
    [L (intersect a b) = L a ∩ L b]. Explored on the fly from the start
    state, so only reachable product states are allocated. *)

val union_list : alphabet:int -> Buchi.t list -> Buchi.t

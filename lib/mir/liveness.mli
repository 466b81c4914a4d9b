(** Backward dataflow liveness over MIR, both register classes.

    Sets are dense bitsets over a per-function register index (GPR-class
    virtual [r] is bit [r], predicate virtual [p] is bit [n_gpr + p]).
    They iterate in ascending [(rclass, int)] order: GPR-class registers
    ascending, then predicates ascending.  A guarded definition does not
    kill, and its target also counts as used ({!Ir.partial_defs}).
    Every block of the function is analysed, reachable from the entry or
    not; the result is the least fixpoint. *)

type t
(** The analysis of one function.  It describes the function as it was
    when analysed: any mutation of the blocks makes it stale. *)

type set
(** A set of registers of the analysed function.  Sets returned by
    {!live_in} and {!live_out} belong to the analysis and are never
    changed by it. *)

val analyse : Ir.func -> t

val live_in : t -> Ir.label -> set
val live_out : t -> Ir.label -> set
(** @raise Not_found for a label that is not a block of the function. *)

val mem : t -> Ir.rclass * int -> set -> bool
val iter : t -> (Ir.rclass * int -> unit) -> set -> unit
(** In ascending [(rclass, int)] order. *)

val elements : t -> set -> (Ir.rclass * int) list
(** In ascending [(rclass, int)] order. *)

val fold_block_backward :
  t -> Ir.block -> init:'a -> f:('a -> int -> Ir.inst -> set -> 'a) -> 'a
(** Walk a block backwards: [f acc k i live] sees instruction [i] at index
    [k] and the set live just after it.  That set is a scratch set the walk
    updates once [f] returns: query it inside [f], and take {!elements}
    to keep it. *)

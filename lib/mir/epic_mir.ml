(** Target-independent mid-level IR (MIR) of the EPIC toolchain.

    - {!Ir}: the IR itself — three-address instructions over virtual
      registers, basic blocks, functions, programs, def/use metadata,
      printing and validation.
    - {!Liveness}: backward dataflow liveness over both register
      classes, as dense bitsets.
    - {!Dominators}: the dominator tree and natural-loop discovery.
    - {!Memmap}: data-memory layout (globals, stack) and big-endian byte
      access shared by the interpreter and both backends.
    - {!Interp}: the reference interpreter defining MIR semantics.
    - {!Verify}: the well-formedness verifier run between optimisation
      passes. *)

module Ir = Ir
module Liveness = Liveness
module Dominators = Dominators
module Memmap = Memmap
module Interp = Interp
module Verify = Verify

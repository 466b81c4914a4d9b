(** Deterministic fault-injection campaigns over the cycle-level simulator.

    The classic single-event-upset study for the customisable EPIC core:
    one transient bit flip per run in an architectural structure, at a
    chosen cycle, classified against a clean golden run and aggregated
    into an AVF-style vulnerability table per structure.

    Campaigns are fully deterministic: fault sites are drawn from the
    repository's seeded xorshift32 PRNG ({!Epic_workloads.Prng}), so the
    same seed reproduces the identical fault list and report. *)

(** Architectural structure a flip lands in. *)
type target =
  | F_gpr   (** General-purpose register bit. *)
  | F_pred  (** Predicate register (1-bit: flip = negate). *)
  | F_btr   (** Branch-target register bit. *)
  | F_mem   (** Data-memory byte bit. *)
  | F_inst  (** Fetched instruction word bit — transient: the corruption
                lives for exactly one fetch (an SEU on the fetch path,
                not a stuck-at fault in instruction memory). *)

val all_targets : target list
(** All five structures, in campaign order. *)

val string_of_target : target -> string
(** ["gpr"], ["pred"], ["btr"], ["mem"], ["inst"]. *)

val target_of_string : string -> target option

type fault = {
  f_target : target;
  f_cycle : int;  (** First cycle at (or after) which the flip fires. *)
  f_index : int;  (** Register index / byte address / issue slot. *)
  f_bit : int;    (** Bit position within the structure. *)
}

val pp_fault : Format.formatter -> fault -> unit

(** Classification of one injected run against the golden run. *)
type outcome =
  | O_masked   (** Golden return value and bit-identical final memory. *)
  | O_sdc      (** Silent data corruption: clean HALT, wrong result. *)
  | O_trap of Epic_sim.trap_cause  (** The trap model caught the fault. *)
  | O_timeout  (** Watchdog fuel exhausted — the fault caused a loop. *)

val string_of_outcome : outcome -> string
(** ["masked"], ["sdc"], ["trap:<cause>"], ["timeout"]. *)

val golden :
  ?fuel:int -> ?pre:Epic_sim.Predecode.t -> Epic_config.t ->
  image:Epic_asm.Aunit.image -> mem:Bytes.t -> entry:int -> Epic_sim.result
(** Run the program fault-free on copies of the image and memory.
    @raise Epic_diag.Error ([fault/golden-trap]) if the clean run traps —
    a campaign over a faulty program is meaningless. *)

val inject :
  ?pre:Epic_sim.Predecode.t ->
  Epic_config.t ->
  image:Epic_asm.Aunit.image ->
  mem:Bytes.t ->
  entry:int ->
  fuel:int ->
  golden_ret:int ->
  golden_mem:Bytes.t ->
  fault ->
  outcome
(** Run the program once with the fault injected and classify the
    outcome.  The run starts at cycle 0 in the simulator's fast loop
    ({!Epic_sim.advance}), fires the flip at the first iteration top
    whose cycle is [>= f_cycle], and runs to HALT, a trap or the
    watchdog; the memory is copied and the image only read, so the
    caller's structures are never mutated.  [fuel] is the watchdog
    bound; [golden_ret]/[golden_mem] come from {!golden}; [pre] is a
    predecode of [image].  Gives the outcome {!campaign} gives the same
    fault. *)

(** One line of the vulnerability table: outcome counts for one
    structure.  Counts always sum to the campaign's runs-per-target. *)
type row = {
  r_target : target;
  r_masked : int;
  r_sdc : int;
  r_trap : int;
  r_timeout : int;
}

val row_runs : row -> int
(** Sum of the four outcome counts. *)

val row_avf : row -> float
(** Architectural vulnerability factor: fraction of flips not masked. *)

(** Where a campaign's simulation went.  Every injection is counted in
    exactly one of the first three fields.  Each is a pure function of
    the fault list, so it does not depend on [jobs]; it is not part of
    the rendered report. *)
type effort = {
  ef_at_flip : int;
      (** Settled at the flip: the flipped state already had the golden
          run's future (say, a flip into a register the program never
          reads), or the run ended before the flip could fire. *)
  ef_reconverged : int;
      (** Settled by a later re-convergence check. *)
  ef_to_end : int;
      (** Run to HALT, a trap or the watchdog, and classified there. *)
  ef_cycles : int;
      (** Cycles the injected runs simulated after their flips. *)
}

type report = {
  rp_seed : int;
  rp_runs : int;           (** Runs per target. *)
  rp_fuel : int;           (** Watchdog fuel used for injected runs. *)
  rp_golden_ret : int;
  rp_golden_cycles : int;
  rp_rows : row list;      (** One per campaigned target, in order. *)
  rp_faults : (fault * outcome) list;
      (** Every injected fault with its classification, in injection
          order — the machine-readable campaign log. *)
  rp_effort : effort;
}

val campaign :
  ?seed:int ->
  ?runs:int ->
  ?targets:target list ->
  ?fuel_factor:int ->
  ?jobs:int ->
  ?pre:Epic_sim.Predecode.t ->
  Epic_config.t ->
  image:Epic_asm.Aunit.image ->
  mem:Bytes.t ->
  entry:int ->
  unit ->
  report
(** Run a full campaign: a golden run, then [runs] (default 32) injected
    runs per target (default {!all_targets}), each with a fault site
    drawn from the seeded PRNG (default seed 1).  Injected runs execute
    under a watchdog of [fuel_factor] (default 4) times the golden cycle
    count plus slack; exhaustion classifies as {!O_timeout}.

    Injected runs start from a golden checkpoint rather than cycle 0:
    the faults are sorted by cycle, and a cursor on the golden run (in
    the simulator's fast loop) is walked forward to each one and forked
    ({!Epic_sim.blit}).  An injected run whose state re-converges with
    the golden run's ({!Epic_sim.same_future}, checked right after the
    flip and then 64, 128, ... 4096 cycles later) is masked and stops
    there; the rest run to their end.  Outcomes equal {!inject}'s.

    [jobs] (default 1) fans the sorted faults out across that many
    domains ({!Epic_exec.Pool}) in contiguous chunks, each with its own
    cursor and buffers: every fault site is drawn from the PRNG up front
    in sequential order, the golden run is computed once, and an
    outcome depends only on its fault — so the report is
    {e bit-identical} for every [jobs] value.
    @raise Epic_diag.Error on a zero seed, non-positive [runs] or
    [fuel_factor], empty memory, or a trapping golden run. *)

val total_runs : report -> int
(** Total injected runs across all rows. *)

val pp_report : Format.formatter -> report -> unit
(** Render the vulnerability table (text form of the [epicfault] CLI). *)

val report_to_json : ?faults:bool -> report -> Epic_profile.Json.t
(** Machine-readable report; [faults] (default false) additionally
    includes the per-fault campaign log. *)

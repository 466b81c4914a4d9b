(** Cycle-level simulator of the customisable EPIC processor — the
    ReaCT-ILP role in the paper's Trimaran flow ("the number of cycles
    taken by our EPIC design is measured by ... a cycle-level simulator",
    Section 5.2).

    Modelled microarchitecture (paper Sections 3.2–3.3):
    - pipeline of {!Epic_config.t.pipeline_stages} stages (the paper's
      prototype: 2 — Fetch/Decode/Issue then Execute/Write-back); a taken
      branch costs [stages - 1] refill bubbles;
    - in-order issue of one bundle (up to [issue_width] operations) per
      cycle; the whole bundle stalls until every source operand is ready
      (scoreboard interlock, so a mis-scheduled program is slow, never
      wrong);
    - register-file controller: at most [rf_port_budget] GPR reads+writes
      per processor cycle (dual-port block RAM clocked at 4x); exceeding
      the budget stalls for the extra controller rounds; with forwarding
      enabled, a value consumed exactly the cycle it becomes available
      bypasses the register file and costs no port;
    - predication: a false guard nullifies the operation (counted in
      [squashed]);
    - branch-target registers written by PBRR and read by branches; code
      addresses are bundle indices;
    - r0 and p0 hardwired; registers hold canonical [width]-bit values;
      memory is the shared big-endian byte memory of {!Epic_mir.Memmap}.

    {b Immutability contract (relied on by {!Epic_exec}).}  [run] treats
    the configuration and the assembled [image] as read-only: it aliases
    [image.im_insts] but never writes to it — the only code path that
    mutates the instruction stream is the caller's own [tamper] hook
    acting on the {!machine} view it is handed.  All simulation state
    (register files, scoreboard, statistics) is allocated per call — or
    per {!state}, for resumable runs — and the module has no global
    mutable state.  Consequently one config and one image may be shared,
    without copying or locking, by concurrent [run] calls on different
    domains — this is what the parallel campaign engine does — provided
    each call (each {!state}) gets its own [mem] buffer ([mem] is
    caller-owned and IS mutated by stores) and any [tamper]/[sink]/[trace]
    callbacks touch only domain-local state. *)

exception Sim_error of Epic_diag.t
(** Misuse of the simulator API (e.g. an image assembled for a different
    issue width), as a structured diagnostic (code [sim/...]).
    Architectural faults do NOT raise: they end the run gracefully with a
    {!trap} record in the {!result} — see {!run_exn} for the old raising
    behaviour. *)

(** {1 Architectural trap model}

    A fault detected while executing terminates the run gracefully: the
    result carries partial statistics, the final architectural state, and
    a machine-readable trap record.  The four causes mirror what the
    hardware's decode/execute stages can detect. *)

type trap_cause =
  | T_bad_pc      (** PC left the code image. *)
  | T_mem_bounds  (** Load/store outside data memory. *)
  | T_illegal_op  (** Unimplemented/illegal operation or operand (decode-stage
                      validation: unknown opcode patterns, register indices
                      beyond the configured files, malformed branch operands). *)
  | T_fuel        (** Watchdog: the cycle budget ([fuel]) ran out. *)

type trap = {
  tr_cause : trap_cause;
  tr_pc : int;         (** Bundle index at the faulting cycle. *)
  tr_cycle : int;      (** Architectural cycle of the fault. *)
  tr_message : string; (** Human-readable detail. *)
}

val string_of_trap_cause : trap_cause -> string
(** ["bad-pc"], ["mem-bounds"], ["illegal-op"], ["fuel"]. *)

val pp_trap : Format.formatter -> trap -> unit

type stats = {
  mutable cycles : int;
  mutable bundles : int;        (** Bundles issued (excludes stall cycles). *)
  mutable ops : int;            (** Non-NOP operations issued (incl. squashed). *)
  mutable nops : int;           (** NOP slots fetched (assembler padding). *)
  mutable squashed : int;       (** Operations nullified by a false guard. *)
  mutable operand_stalls : int; (** Cycles lost to scoreboard interlocks. *)
  mutable port_stalls : int;    (** Cycles lost to the register-port budget. *)
  mutable branch_bubbles : int; (** Pipeline refill cycles after taken branches. *)
  mutable mem_reads : int;
  mutable mem_writes : int;
  mutable alu_ops : int;
  mutable lsu_ops : int;
  mutable cmpu_ops : int;
  mutable bru_ops : int;
}

type result = {
  ret : int;          (** r3 at HALT (the calling convention's return value);
                          for a trapped run, r3 at the fault. *)
  stats : stats;      (** Complete for clean runs, partial up to the trap. *)
  mem : Bytes.t;      (** Final data memory (same buffer as passed in). *)
  gprs : int array;   (** Final architectural register file. *)
  trap : trap option; (** [None] for a clean HALT. *)
}

(** Mutable view of the whole architectural state, handed to {!run}'s
    [tamper] hook once per cycle (after the fuel and PC checks, before
    fetch) — a per-cycle injection surface.  {!Epic_fault} no longer
    uses it (it forks resumable {!state}s instead); its from-zero
    injector built on this hook is kept as a test reference.  The arrays
    and buffer are the simulator's own: mutations take effect
    immediately.  [m_insts] is the image's instruction stream, indexed
    [bundle * issue_width + slot]. *)
type machine = {
  m_gprs : int array;
  m_preds : bool array;
  m_btrs : int array;
  m_mem : Bytes.t;
  m_insts : Epic_isa.inst array;
  m_issue_width : int;
  m_pc : int;     (** Bundle about to be fetched. *)
  m_cycle : int;  (** Current architectural cycle. *)
}

val ilp : stats -> float
(** Issued operations per cycle. *)

(** {1 Structured event stream}

    The profiling hook ({!Epic_profile} is the main consumer).  When
    {!run} is given a [sink], it emits one {!event} per issued bundle and
    one per stall, in simulated-time order.  The stream is conservative:
    every simulated cycle is covered by exactly one event (an issue costs
    one cycle; a stall event carries its cycle count), so summing over
    events recovers [stats.cycles] exactly.  Without a sink the simulator
    takes the exact same path as before — cycle counts are unchanged. *)

type stall_cause =
  | S_operand  (** Scoreboard interlock: a source operand not yet ready. *)
  | S_port     (** Register-file port budget exceeded. *)
  | S_branch   (** Pipeline refill bubbles after a taken branch. *)

type slot =
  | Sl_empty                   (** NOP padding slot. *)
  | Sl_op of Epic_isa.opcode   (** Issued and executed. *)
  | Sl_squashed of Epic_isa.opcode  (** Nullified by a false guard. *)
  | Sl_shadowed of Epic_isa.opcode
      (** Skipped: an earlier slot of the bundle took a branch. *)

type event =
  | Ev_stall of { at : int; pc : int; cause : stall_cause; cycles : int }
  | Ev_issue of {
      at : int;            (** Cycle the bundle issued. *)
      pc : int;            (** Bundle index. *)
      slots : slot array;  (** One entry per issue slot. *)
      next_pc : int;       (** Bundle executing next. *)
      taken : bool;        (** A branch (or HALT) redirected the flow. *)
    }

val string_of_stall_cause : stall_cause -> string

(** {1 Predecode: the first tier of the two-tier engine}

    {!run} decodes and legality-checks each image {e once} per
    (image x config) into flat resolved op records — int-coded dispatch
    classes, flattened read/write register sets, resolved latencies —
    and the cycle loops consume only those.  Callers that re-simulate
    the same image many times (fault campaigns, the serving daemon, DSE
    sweeps) should build the predecode once with {!Predecode.of_image}
    (or obtain it from {!Epic_exec.Cache} keyed by
    [Epic_config.fingerprint] x {!Predecode.image_digest}) and pass it
    as [run ~pre].

    Legality checks move to predecode time, but the trap taxonomy for
    corrupted images is preserved exactly: failures are {e recorded},
    not raised, and the simulator raises them at the original program
    points (fetch / issue / execute), so a bundle that is never reached
    never traps.

    A predecode is immutable and holds no mutable simulator state: like
    the image itself it may be shared across concurrent domains.
    [run ~pre] rejects (with [Sim_error], code [sim/predecode-mismatch])
    a predecode built for a different instruction stream, issue width or
    configuration.  Runs with a [tamper] hook re-decode any bundle whose
    fetched slots are no longer the records the predecode was built from
    (physical per-slot comparison), so a hook that rewrites instruction
    words still sees them executed; {!step_corrupted} gives the fast loop
    the same one-fetch view of a corrupted word. *)

module Predecode : sig
  type t
  (** A fully resolved (image x config) decode. *)

  val of_image : Epic_config.t -> Epic_asm.Aunit.image -> t
  (** Decode and legality-check every bundle of [image].  Never raises
      on illegal content — failures are deferred to the run that reaches
      them. *)

  val image_digest : Epic_asm.Aunit.image -> string
  (** Content digest of the instruction stream, for cache keying by
      (config fingerprint x image). *)

  val n_bundles : t -> int

  val issue_width : t -> int

  val fetch_trap : t -> int -> string option
  (** [fetch_trap t pc] is the decode-stage failure the simulator will
      raise (as [T_illegal_op]) when bundle [pc] is fetched, if any. *)

  val bundle_reads : t -> int -> int list * int list * int list
  (** Flattened (GPR, predicate, BTR) read indices of a bundle,
      multiplicity preserved — equals the concatenation of
      [Epic_isa.reads] over the bundle's slots (introspection for
      tests). *)

  val gpr_write_ports : t -> int -> int
  (** GPR write-port count of a bundle — equals the GPR entries of
      [Epic_isa.writes] over its slots. *)

  val slot_latency : t -> bundle:int -> slot:int -> int
  (** Resolved result latency, i.e. [Epic_config.latency]. *)

  val slot_kind : t -> bundle:int -> slot:int -> string
  (** Dispatch class: ["nop"], ["alu"], ["load"], ["store"], ["cmpp"],
      ["pbrr"], ["bru"], ["brc"], ["brl"] or ["halt"]. *)
end

val default_fuel : int
(** The cycle budget {!run} applies when [fuel] is absent (5*10^8).
    Exposed so callers that {e tighten} the budget — the serving
    daemon's fuel-based deadlines — can tell whether a cap they computed
    is below what the simulator would have used anyway. *)

(** {1 Resumable runs}

    A {!state} is a run paused at the top of its cycle loop: {!start}
    makes one at cycle 0, {!advance} runs the fast loop on it until a
    given cycle, HALT or a trap, and {!result} reads the outcome.  Any
    sequence of [advance] calls with the same [fuel], ending with one to
    [max_int], gives exactly {!run}'s result — [run] without hooks {e is}
    [start], [advance ~until:max_int], [result].  Fault campaigns use
    the rest: {!blit} forks a run from a golden cursor,
    {!step_corrupted} executes one fetch of a corrupted instruction word,
    and {!same_future} detects an injected run that has re-converged
    with the golden one. *)

type state = private {
  s_cfg : Epic_config.t;
  s_pre : Predecode.t;     (** The image being run. *)
  mutable s_pc : int;      (** Bundle about to be fetched. *)
  mutable s_cycle : int;   (** Current architectural cycle. *)
  mutable s_halted : bool;
  mutable s_ret : int;     (** Set at HALT or at a trap, as {!result.ret}. *)
  mutable s_trap : trap option;
  s_gprs : int array;
  s_preds : bool array;
  s_btrs : int array;
  s_gpr_ready : int array;  (** Cycle each register's value becomes readable. *)
  s_pred_ready : int array;
  s_btr_ready : int array;
  s_stats : stats;
  s_mem : Bytes.t;          (** The caller's buffer, mutated by stores. *)
}
(** The register files and memory may be written in place (a bit flip
    is [s_gprs.(r) <- v lxor mask]); everything else is the simulator's.
    Register values must stay canonical [width]-bit unsigned ints. *)

val start :
  ?pre:Predecode.t ->
  Epic_config.t ->
  image:Epic_asm.Aunit.image ->
  mem:Bytes.t ->
  ?entry:int ->
  unit ->
  state
(** A run of [image] at cycle 0 with pc [entry] (default 0), checked
    and predecoded exactly as {!run} does.  [mem] becomes the state's
    memory (not copied). *)

val advance : ?fuel:int -> until:int -> state -> unit
(** Run the fast loop until HALT, a trap, or the first iteration top
    whose cycle is [>= until] (if the state is already there, nothing
    runs).  A finished state is left as it is.  [fuel] is {!run}'s
    watchdog (default {!default_fuel}): the cycle budget of the whole
    run, not of this call. *)

val step_corrupted : ?fuel:int -> state -> slot:int -> Epic_isa.inst -> unit
(** Run exactly one iteration of the fast loop, fetching the current
    bundle as if issue slot [slot] held [inst] — a transient fault on
    the fetch path; later fetches see the clean image.  This is what a
    [tamper] hook that rewrites the word and restores it on the next
    cycle does.  If the pc is outside the image the iteration traps as
    usual.
    @raise Invalid_argument if [slot] is not an issue slot. *)

val blit : src:state -> dst:state -> unit
(** Copy every mutable part of [src] (registers, ready times, stats,
    memory, pc, cycle, outcome) into [dst], without allocating.
    @raise Invalid_argument unless both states were started on the same
    predecode with equally sized memories. *)

val same_future : state -> state -> bool
(** [same_future a b]: both states are at the same pc and cycle,
    neither has halted or trapped, they agree on memory and on every
    register some bundle of the image reads (r3 included) — both on its
    value and on its ready time, unless both ready times are already
    below the current cycle.  Then both runs continue identically: same
    traps, same HALT, same return value and final memory (the
    statistics accumulated so far may differ).  The test is exact for
    unchanged images; it ignores registers the image never reads.
    @raise Invalid_argument unless both states run the same predecode. *)

val finished : state -> bool
(** Halted or trapped. *)

val result : state -> result
(** The run's outcome so far, sharing the state's memory, registers and
    stats.  [ret] and [trap] are final only once {!finished}. *)

val run :
  ?fuel:int ->
  ?trace:Format.formatter ->
  ?sink:(event -> unit) ->
  ?tamper:(machine -> unit) ->
  ?pre:Predecode.t ->
  Epic_config.t ->
  image:Epic_asm.Aunit.image ->
  mem:Bytes.t ->
  ?entry:int ->
  unit ->
  result
(** Execute an assembled image until HALT or a trap.  [fuel] bounds
    simulated cycles (default 5*10^8; exhaustion is a [T_fuel] trap, not
    an exception); [trace] prints one line per issued bundle (cycle, PC,
    live operations, squashed ones bracketed); [sink] receives the
    structured event stream (see above; no overhead when absent);
    [tamper] is called once per cycle with the mutable {!machine} view
    (fault injection; no overhead when absent); [pre] is a predecode of
    exactly this image under exactly this configuration (built fresh
    when absent — pass it to amortise decode across repeated runs);
    [entry] is the starting bundle index (default 0, where the toolchain
    places [_start]).  Without [trace]/[sink]/[tamper] the run is
    [start], [advance ~until:max_int], [result]: the fast loop, which
    allocates nothing per cycle.  Architectural faults are returned in
    [result.trap]; only API misuse raises {!Sim_error}. *)

val run_exn :
  ?fuel:int ->
  ?trace:Format.formatter ->
  ?sink:(event -> unit) ->
  ?tamper:(machine -> unit) ->
  ?pre:Predecode.t ->
  Epic_config.t ->
  image:Epic_asm.Aunit.image ->
  mem:Bytes.t ->
  ?entry:int ->
  unit ->
  result
(** Compatibility wrapper over {!run}: a trapped run raises {!Sim_error}
    with the rendered trap instead of returning it. *)

val pp_stats : Format.formatter -> stats -> unit

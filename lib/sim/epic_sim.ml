(** Cycle-level simulator of the customisable EPIC processor (the
    ReaCT-ILP role in the paper's flow: "the number of cycles taken by our
    EPIC design is measured by ... a cycle-level simulator").

    Modelled microarchitecture (paper Sections 3.2-3.3):
    - 2-stage pipeline: Fetch/Decode/Issue, then Execute/Write-back; a
      taken branch costs one refill bubble;
    - in-order issue of one bundle (up to [issue_width] operations) per
      cycle, whole-bundle stall on a not-yet-ready operand (scoreboard
      interlock, so mis-scheduled code is slow rather than wrong);
    - register-file controller: at most [rf_port_budget] GPR reads+writes
      per processor cycle (dual-port block RAM clocked at 4x); exceeding
      the budget stalls for the extra controller rounds; with
      [forwarding] on, a value consumed the cycle it becomes available
      bypasses the register file and costs no port;
    - predication: a false guard nullifies the operation;
    - branch-target registers written by PBRR, read by branches.

    Register values are canonical [width]-bit unsigned ints; r0 and p0 are
    hardwired.  Memory is the byte-addressable big-endian data memory
    shared with the MIR tooling ({!Epic_mir.Memmap}). *)

module Isa = Epic_isa
module Config = Epic_config
module A = Epic_asm.Aunit
module Memmap = Epic_mir.Memmap
module Predecode = Predecode

module Diag = Epic_diag

exception Sim_error of Diag.t

let fail ?ctx code fmt =
  Format.kasprintf (fun s -> raise (Sim_error (Diag.v ?context:ctx ~code s))) fmt

(* ---- architectural trap model ------------------------------------- *)

(* A fault detected while executing — runaway PC, out-of-bounds memory
   access, an operation the configured datapath does not implement, fuel
   exhaustion — terminates the run gracefully: the simulator catches the
   internal [Trap] exception at the top of its cycle loop and returns a
   normal [result] carrying the trap record alongside the partial
   statistics and final architectural state.  Nothing escapes as an
   exception from [run]; [run_exn] restores the old raising behaviour. *)

type trap_cause =
  | T_bad_pc      (* PC left the code image *)
  | T_mem_bounds  (* load/store outside data memory *)
  | T_illegal_op  (* unimplemented/illegal operation or operand *)
  | T_fuel        (* watchdog: cycle budget exhausted *)

type trap = {
  tr_cause : trap_cause;
  tr_pc : int;        (* bundle index at the faulting cycle *)
  tr_cycle : int;     (* architectural cycle of the fault *)
  tr_message : string;
}

exception Trap of trap_cause * string

let trap_ cause fmt = Format.kasprintf (fun s -> raise (Trap (cause, s))) fmt

let string_of_trap_cause = function
  | T_bad_pc -> "bad-pc"
  | T_mem_bounds -> "mem-bounds"
  | T_illegal_op -> "illegal-op"
  | T_fuel -> "fuel"

let pp_trap ppf t =
  Format.fprintf ppf "trap %s at pc=%d cycle=%d: %s"
    (string_of_trap_cause t.tr_cause) t.tr_pc t.tr_cycle t.tr_message

type stats = {
  mutable cycles : int;
  mutable bundles : int;       (* bundles issued (not counting stalls) *)
  mutable ops : int;           (* non-NOP operations issued *)
  mutable nops : int;          (* NOP slots fetched *)
  mutable squashed : int;      (* operations nullified by a false guard *)
  mutable operand_stalls : int;
  mutable port_stalls : int;
  mutable branch_bubbles : int;
  mutable mem_reads : int;
  mutable mem_writes : int;
  mutable alu_ops : int;
  mutable lsu_ops : int;
  mutable cmpu_ops : int;
  mutable bru_ops : int;
}

type result = {
  ret : int;            (* r3 at HALT (or at the trap, for faulting runs) *)
  stats : stats;
  mem : Bytes.t;
  gprs : int array;
  trap : trap option;   (* None: clean HALT; Some: why the run ended early *)
}

(* Mutable view of the whole architectural state, handed to a [tamper]
   hook once per cycle — a per-cycle injection surface (fault campaigns
   use resumable states instead; see [advance]).  The arrays and the
   byte buffer are the simulator's own (mutations take effect
   immediately); [m_insts] is the image's instruction stream, indexed
   [bundle * issue_width + slot]. *)
type machine = {
  m_gprs : int array;
  m_preds : bool array;
  m_btrs : int array;
  m_mem : Bytes.t;
  m_insts : Isa.inst array;
  m_issue_width : int;
  m_pc : int;
  m_cycle : int;
}

let mk_stats () =
  { cycles = 0; bundles = 0; ops = 0; nops = 0; squashed = 0;
    operand_stalls = 0; port_stalls = 0; branch_bubbles = 0;
    mem_reads = 0; mem_writes = 0; alu_ops = 0; lsu_ops = 0; cmpu_ops = 0;
    bru_ops = 0 }

let ilp st = if st.cycles = 0 then 0.0 else float_of_int st.ops /. float_of_int st.cycles

(* ---- structured event stream ------------------------------------- *)

(* The profiling hook: when [run] is given a [sink], it emits one event
   per issued bundle and one per stall, in simulated-time order.  The
   stream is conservative by construction: every simulated cycle is
   covered by exactly one event (an issue costs one cycle, a stall event
   carries its cycle count), so a consumer summing over events recovers
   [stats.cycles] exactly.  With no sink the simulator takes the exact
   same path as before — cycle counts are bit-identical. *)

type stall_cause =
  | S_operand   (* scoreboard interlock: a source operand not yet ready *)
  | S_port      (* register-file port budget exceeded *)
  | S_branch    (* pipeline refill bubbles after a taken branch *)

type slot =
  | Sl_empty                  (* NOP padding slot *)
  | Sl_op of Isa.opcode       (* issued and executed *)
  | Sl_squashed of Isa.opcode (* nullified by a false guard *)
  | Sl_shadowed of Isa.opcode (* skipped: an earlier slot took a branch *)

type event =
  | Ev_stall of { at : int; pc : int; cause : stall_cause; cycles : int }
  | Ev_issue of {
      at : int;              (* cycle the bundle issued *)
      pc : int;              (* bundle index *)
      slots : slot array;    (* one entry per issue slot *)
      next_pc : int;         (* bundle executing next *)
      taken : bool;          (* a branch (or HALT) redirected the flow *)
    }

let string_of_stall_cause = function
  | S_operand -> "operand"
  | S_port -> "port"
  | S_branch -> "branch"


(* ---- resumable machine state --------------------------------------

   Everything a run carries from one cycle to the next: the pc and the
   cycle, the halted/ret/trap outcome, the three register files with the
   cycle each register's latest value becomes readable, the statistics
   and the data memory.  [advance] runs the fast loop on a state and
   stops at an iteration top, so a run can be paused, copied ([blit]) and
   resumed — fault campaigns fast-forward a golden cursor to each
   injection point and fork the injected run from it.  [s_cfg] and
   [s_pre] are fixed at [start]; the register arrays are sized by
   [s_cfg], which the fast loop's unchecked indexing relies on. *)

type state = {
  s_cfg : Config.t;
  s_pre : Predecode.t;
  mutable s_pc : int;
  mutable s_cycle : int;
  mutable s_halted : bool;
  mutable s_ret : int;
  mutable s_trap : trap option;
  s_gprs : int array;
  s_preds : bool array;
  s_btrs : int array;
  s_gpr_ready : int array;
  s_pred_ready : int array;
  s_btr_ready : int array;
  s_stats : stats;
  s_mem : Bytes.t;
}

(* The predecode a run over [image] uses: [pre] checked against the
   image and the configuration, or a fresh one. *)
let checked_pre ~tampered (cfg : Config.t) (image : A.image) pre =
  let w = image.A.im_issue_width in
  if w <> cfg.Config.issue_width then
    fail "sim/issue-width"
      ~ctx:
        [ ("image", string_of_int w);
          ("config", string_of_int cfg.Config.issue_width) ]
      "image was assembled for issue width %d, configuration has %d" w
      cfg.Config.issue_width;
  let insts = image.A.im_insts in
  match pre with
  | None -> Predecode.of_image cfg image
  | Some p ->
    if p.Predecode.p_w <> w then
      fail "sim/predecode-mismatch"
        "predecode was built for issue width %d, image has %d"
        p.Predecode.p_w w;
    if not (Predecode.same_config p cfg) then
      fail "sim/predecode-mismatch"
        "predecode was built under a different configuration";
    if not tampered then begin
      if not (Predecode.matches_insts p insts) then
        fail "sim/predecode-mismatch"
          "predecode does not match this image's instruction stream"
    end
    else if
      (* Tampered runs legitimately diverge from the predecoded stream
         mid-run (touched bundles are re-decoded), but the shapes must
         agree. *)
      Array.length p.Predecode.p_insts <> Array.length insts
    then
      fail "sim/predecode-mismatch"
        "predecode was built for a different image size";
    p

let make_state (cfg : Config.t) pre mem entry =
  let preds = Array.make cfg.Config.n_preds false in
  preds.(0) <- true;
  { s_cfg = cfg; s_pre = pre; s_pc = entry; s_cycle = 0; s_halted = false;
    s_ret = 0; s_trap = None;
    s_gprs = Array.make cfg.Config.n_gprs 0;
    s_preds = preds;
    s_btrs = Array.make cfg.Config.n_btrs 0;
    s_gpr_ready = Array.make cfg.Config.n_gprs 0;
    s_pred_ready = Array.make cfg.Config.n_preds 0;
    s_btr_ready = Array.make cfg.Config.n_btrs 0;
    s_stats = mk_stats ();
    s_mem = mem }

let start ?pre cfg ~image ~mem ?(entry = 0) () =
  make_state cfg (checked_pre ~tampered:false cfg image pre) mem entry

let finished st = st.s_halted || st.s_trap <> None

let result st =
  { ret = st.s_ret; stats = st.s_stats; mem = st.s_mem; gprs = st.s_gprs;
    trap = st.s_trap }

let blit ~src ~dst =
  if src.s_pre != dst.s_pre || Bytes.length src.s_mem <> Bytes.length dst.s_mem
  then invalid_arg "Epic_sim.blit: states of different runs";
  dst.s_pc <- src.s_pc;
  dst.s_cycle <- src.s_cycle;
  dst.s_halted <- src.s_halted;
  dst.s_ret <- src.s_ret;
  dst.s_trap <- src.s_trap;
  let copy a b = Array.blit a 0 b 0 (Array.length a) in
  copy src.s_gprs dst.s_gprs;
  copy src.s_preds dst.s_preds;
  copy src.s_btrs dst.s_btrs;
  copy src.s_gpr_ready dst.s_gpr_ready;
  copy src.s_pred_ready dst.s_pred_ready;
  copy src.s_btr_ready dst.s_btr_ready;
  let a = src.s_stats and b = dst.s_stats in
  b.cycles <- a.cycles; b.bundles <- a.bundles; b.ops <- a.ops;
  b.nops <- a.nops; b.squashed <- a.squashed;
  b.operand_stalls <- a.operand_stalls; b.port_stalls <- a.port_stalls;
  b.branch_bubbles <- a.branch_bubbles; b.mem_reads <- a.mem_reads;
  b.mem_writes <- a.mem_writes; b.alu_ops <- a.alu_ops;
  b.lsu_ops <- a.lsu_ops; b.cmpu_ops <- a.cmpu_ops; b.bru_ops <- a.bru_ops;
  Bytes.blit src.s_mem 0 dst.s_mem 0 (Bytes.length src.s_mem)

(* Exact re-convergence.  The future of a state at an iteration top
   depends only on its pc and cycle, the values of the registers the
   image can read, those registers' ready times where they can still
   stall or forward (a ready time below the current cycle does neither,
   and only grows more so), and memory.  An unread register is
   overwritten before anything observes it. *)
let same_future a b =
  let pre = a.s_pre in
  if b.s_pre != pre then invalid_arg "Epic_sim.same_future: states of different runs";
  let now = a.s_cycle in
  let regs live va vb ra rb eq =
    let ok = ref true and j = ref 0 in
    while !ok && !j < Array.length live do
      let r = Array.unsafe_get live !j in
      let ta = ra.(r) and tb = rb.(r) in
      ok := eq va.(r) vb.(r) && (ta = tb || (ta < now && tb < now));
      incr j
    done;
    !ok
  in
  a.s_pc = b.s_pc && now = b.s_cycle
  && (not (finished a)) && not (finished b)
  && regs pre.Predecode.p_live_g a.s_gprs b.s_gprs a.s_gpr_ready b.s_gpr_ready
       Int.equal
  && regs pre.Predecode.p_live_p a.s_preds b.s_preds a.s_pred_ready
       b.s_pred_ready Bool.equal
  && regs pre.Predecode.p_live_b a.s_btrs b.s_btrs a.s_btr_ready b.s_btr_ready
       Int.equal
  && Bytes.equal a.s_mem b.s_mem

(* ---- two-tier execution -------------------------------------------

   [exec] runs a state over resolved bundle records in one of two cycle
   loops:

   - the FAST loop, taken when no [sink]/[trace]/[tamper] hook is
     present: no option matching and no allocation per cycle — every
     per-cycle scratch array and accumulator is hoisted out of the
     [while];
   - the INSTRUMENTED loop, which adds the event stream, the trace
     printer and the tamper hook, and — because a tamper hook may
     rewrite instruction words in place — re-decodes any bundle whose
     fetched slots are no longer the records the predecode was built
     from (physical comparison per slot; untouched bundles pay one
     pointer compare per slot).

   Both stop at HALT, at a trap, or at the first iteration top whose
   cycle is >= [until].  The loop variables live in local refs, loaded
   from the state on entry and written back on exit, so the per-cycle
   code is that of a single uninterrupted run.

   Stats, final state and traps are bit-identical between the two loops;
   test/test_engine.ml and the differential fuzzer hold them equal. *)

(* [trace] receives one line per issued bundle: cycle, PC and the
   non-NOP operations (squashed ones bracketed).  Used by epicsim
   --trace and handy when debugging schedules. *)
let default_fuel = 500_000_000

let exec ~fuel ~until ?trace ?sink ?tamper ~insts bundles ms =
  let cfg = ms.s_cfg in
  let pre = ms.s_pre in
  let w = pre.Predecode.p_w in
  let n_bundles = Array.length bundles in
  let width = cfg.Config.width in
  let msk = Isa.Word.max_unsigned width in
  let m v = v land msk in
  let gprs = ms.s_gprs in
  let preds = ms.s_preds in
  let btrs = ms.s_btrs in
  (* Cycle at which each register's latest value becomes readable. *)
  let gpr_ready = ms.s_gpr_ready in
  let pred_ready = ms.s_pred_ready in
  let btr_ready = ms.s_btr_ready in
  let st = ms.s_stats in
  let mem = ms.s_mem in
  let custom name a b = Config.custom_eval cfg name a b in
  (* Inline ALU evaluation over canonical (already-masked) operands,
     dispatched on the predecoded sub-operation code — semantics
     identical to [Isa.eval_alu], which remains the fallback for the
     configured custom operations (their name lives in [x_op]). *)
  let sign_bit = 1 lsl (width - 1) in
  let modulus = 1 lsl width in
  let ts v = if v land sign_bit <> 0 then v - modulus else v in
  let alu_eval code op a b =
    match code with
    | 0 -> (a + b) land msk                                       (* ADD *)
    | 1 -> (a - b) land msk                                       (* SUB *)
    | 2 -> (a * b) land msk                                       (* MPY *)
    | 3 -> let d = ts b in if d = 0 then 0 else (ts a / d) land msk
    | 4 -> let d = ts b in if d = 0 then a else (ts a mod d) land msk
    | 5 -> if ts a <= ts b then a else b                          (* MIN *)
    | 6 -> if ts a >= ts b then a else b                          (* MAX *)
    | 7 -> abs (ts a) land msk                                    (* ABS *)
    | 8 -> a land b
    | 9 -> a lor b
    | 10 -> a lxor b
    | 11 -> a land lnot b                                         (* ANDCM *)
    | 12 -> lnot (a land b) land msk                              (* NAND *)
    | 13 -> lnot (a lor b) land msk                               (* NOR *)
    | 14 -> if b >= width then 0 else (a lsl b) land msk          (* SHL *)
    | 15 -> if b >= width then 0 else a lsr b                     (* SHR *)
    | 16 ->
      let n = if b >= width then width - 1 else b in
      ts a asr n land msk                                         (* SHRA *)
    | 17 -> a                                                     (* MOV *)
    | _ -> Isa.eval_alu ~width ~custom op a b                     (* CUSTOM *)
  in
  let mem_len = Bytes.length mem in
  let budget = cfg.Config.rf_port_budget in
  let fwd = cfg.Config.forwarding in
  let bubbles = cfg.Config.pipeline_stages - 1 in
  let halted = ref ms.s_halted in
  let ret = ref ms.s_ret in
  let pc = ref ms.s_pc in
  let now = ref ms.s_cycle in
  let trap_info = ref ms.s_trap in
  (* Per-cycle scratch, hoisted so the fast loop never allocates. *)
  let vals1 = Array.make w 0 and vals2 = Array.make w 0 in
  let enabled = Array.make w false in
  let branch_pred = Array.make w true in
  let ready_cycle = ref 0 in
  let port_ops = ref 0 in
  let next_pc = ref 0 in
  let taken = ref false in
  (* The shared cycle body, phases in the exact order of the original
     single loop.  [b] is the current bundle's predecode. *)
  (try
     match trace, sink, tamper with
     | None, None, None ->
       (* ================= FAST LOOP ================================ *)
       while not !halted && !now < until do
         if !now > fuel then trap_ T_fuel "out of fuel after %d cycles" fuel;
         let pcv = !pc in
         if pcv < 0 || pcv >= n_bundles then
           trap_ T_bad_pc "PC %d outside code (cycle %d)" pcv st.cycles;
         let b = Array.unsafe_get bundles pcv in
         (match b.Predecode.b_fetch_trap with
          | Some msg -> raise (Trap (T_illegal_op, msg))
          | None -> ());
         (* readiness: stall the whole bundle until every source (and
            guard) of every operation is available. *)
         let rg = b.Predecode.b_rg in
         let rp = b.Predecode.b_rp in
         let rb = b.Predecode.b_rb in
         ready_cycle := 0;
         for j = 0 to Array.length rg - 1 do
           let r = Array.unsafe_get gpr_ready (Array.unsafe_get rg j) in
           if r > !ready_cycle then ready_cycle := r
         done;
         for j = 0 to Array.length rp - 1 do
           let r = Array.unsafe_get pred_ready (Array.unsafe_get rp j) in
           if r > !ready_cycle then ready_cycle := r
         done;
         for j = 0 to Array.length rb - 1 do
           let r = Array.unsafe_get btr_ready (Array.unsafe_get rb j) in
           if r > !ready_cycle then ready_cycle := r
         done;
         if !ready_cycle > !now then begin
           st.operand_stalls <- st.operand_stalls + (!ready_cycle - !now);
           st.cycles <- st.cycles + (!ready_cycle - !now);
           now := !ready_cycle
         end;
         (* register-file port accounting: a forwarded GPR read is free,
            every other GPR read and every GPR write costs one port. *)
         port_ops := b.Predecode.b_wg;
         if fwd then begin
           let nowv = !now in
           for j = 0 to Array.length rg - 1 do
             let fwd_hit =
               Array.unsafe_get gpr_ready (Array.unsafe_get rg j) = nowv
               && nowv > 0
             in
             if not fwd_hit then incr port_ops
           done
         end
         else port_ops := !port_ops + Array.length rg;
         if !port_ops > budget then begin
           let extra = ((!port_ops + budget - 1) / budget) - 1 in
           st.port_stalls <- st.port_stalls + extra;
           st.cycles <- st.cycles + extra;
           now := !now + extra
         end;
         (* phase 1: read all sources (register reads happen at issue). *)
         let slots = b.Predecode.b_slots in
         for k = 0 to w - 1 do
           let s = Array.unsafe_get slots k in
           let r1 = s.Predecode.x_s1r in
           Array.unsafe_set vals1 k
             (if r1 >= 0 then Array.unsafe_get gprs r1 else s.Predecode.x_s1v);
           let r2 = s.Predecode.x_s2r in
           Array.unsafe_set vals2 k
             (if r2 >= 0 then Array.unsafe_get gprs r2 else s.Predecode.x_s2v);
           let g = s.Predecode.x_guard in
           Array.unsafe_set enabled k (g = 0 || Array.unsafe_get preds g);
           (* Conditional branches also read their branch predicate at
              issue ([x_bp] is -1 exactly when [b_p1_trap] is set, which
              raises below before the value could be consumed). *)
           let bp = s.Predecode.x_bp in
           if s.Predecode.x_kind = 7 (* k_brc *) && bp >= 0 then
             Array.unsafe_set branch_pred k (Array.unsafe_get preds bp)
         done;
         (match b.Predecode.b_p1_trap with
          | Some msg -> raise (Trap (T_illegal_op, msg))
          | None -> ());
         (* phase 2: execute and write back. *)
         let cycle = !now in
         next_pc := pcv + 1;
         taken := false;
         for k = 0 to w - 1 do
           if not !taken then begin
             let s = Array.unsafe_get slots k in
             let kind = s.Predecode.x_kind in
             if kind = 0 (* k_nop *) then st.nops <- st.nops + 1
             else if not (Array.unsafe_get enabled k) then begin
               st.squashed <- st.squashed + 1;
               st.ops <- st.ops + 1
             end
             else begin
               st.ops <- st.ops + 1;
               (match s.Predecode.x_unit with
                | 0 -> st.alu_ops <- st.alu_ops + 1
                | 1 -> st.lsu_ops <- st.lsu_ops + 1
                | 2 -> st.cmpu_ops <- st.cmpu_ops + 1
                | 3 -> st.bru_ops <- st.bru_ops + 1
                | _ -> ());
               if kind = 1 (* k_alu *) then begin
                 let v =
                   alu_eval s.Predecode.x_alu s.Predecode.x_op
                     (Array.unsafe_get vals1 k) (Array.unsafe_get vals2 k)
                 in
                 let d = s.Predecode.x_dst1 in
                 if d <> 0 then begin
                   gprs.(d) <- m v;
                   gpr_ready.(d) <- cycle + s.Predecode.x_lat
                 end
               end
               else if kind = 2 (* k_ld *) then begin
                 let ea = m (Array.unsafe_get vals1 k + Array.unsafe_get vals2 k) in
                 if ea < 0 || ea + s.Predecode.x_bytes > mem_len then
                   trap_ T_mem_bounds "load: address %#x out of bounds (cycle %d)"
                     ea st.cycles;
                 st.mem_reads <- st.mem_reads + 1;
                 let v =
                   Memmap.read ~size:s.Predecode.x_size ~ext:s.Predecode.x_ext
                     mem ea
                 in
                 let d = s.Predecode.x_dst1 in
                 if d <> 0 then begin
                   gprs.(d) <- m v;
                   gpr_ready.(d) <- cycle + s.Predecode.x_lat
                 end
               end
               else if kind = 3 (* k_st *) then begin
                 let ea = m (Array.unsafe_get vals1 k + s.Predecode.x_stoff) in
                 if ea < 0 || ea + s.Predecode.x_bytes > mem_len then
                   trap_ T_mem_bounds "store: address %#x out of bounds (cycle %d)"
                     ea st.cycles;
                 st.mem_writes <- st.mem_writes + 1;
                 Memmap.write ~size:s.Predecode.x_size mem ea
                   (Array.unsafe_get vals2 k)
               end
               else if kind = 4 (* k_cmpp *) then begin
                 let t =
                   Isa.eval_cmp ~width s.Predecode.x_cond
                     (Array.unsafe_get vals1 k) (Array.unsafe_get vals2 k)
                 in
                 let d1 = s.Predecode.x_dst1 in
                 if d1 <> 0 then begin
                   preds.(d1) <- t;
                   pred_ready.(d1) <- cycle + s.Predecode.x_lat
                 end;
                 let d2 = s.Predecode.x_dst2 in
                 if d2 <> 0 then begin
                   preds.(d2) <- not t;
                   pred_ready.(d2) <- cycle + s.Predecode.x_lat
                 end
               end
               else if kind = 5 (* k_pbrr *) then begin
                 btrs.(s.Predecode.x_dst1) <- Array.unsafe_get vals1 k;
                 btr_ready.(s.Predecode.x_dst1) <- cycle + s.Predecode.x_lat
               end
               else if kind = 6 (* k_bru *) then begin
                 let bi = s.Predecode.x_btr in
                 if bi >= 0 then begin next_pc := btrs.(bi); taken := true end
                 else trap_ T_illegal_op "BRU operand must be a BTR index"
               end
               else if kind = 7 (* k_brc *) then begin
                 if Array.unsafe_get branch_pred k = s.Predecode.x_want then begin
                   let bi = s.Predecode.x_btr in
                   if bi >= 0 then begin next_pc := btrs.(bi); taken := true end
                   else trap_ T_illegal_op "branch operand must be a BTR index"
                 end
               end
               else if kind = 8 (* k_brl *) then begin
                 let bi = s.Predecode.x_btr in
                 if bi >= 0 then begin
                   let d = s.Predecode.x_dst1 in
                   if d <> 0 then begin
                     gprs.(d) <- m (pcv + 1);
                     gpr_ready.(d) <- cycle + s.Predecode.x_lat
                   end;
                   next_pc := btrs.(bi);
                   taken := true
                 end
                 else trap_ T_illegal_op "BRL operand must be a BTR index"
               end
               else begin (* k_halt *)
                 halted := true;
                 ret := gprs.(3);
                 taken := true
               end
             end
           end
         done;
         st.bundles <- st.bundles + 1;
         st.cycles <- st.cycles + 1;
         now := !now + 1;
         if !taken && not !halted && bubbles > 0 then begin
           st.branch_bubbles <- st.branch_bubbles + bubbles;
           st.cycles <- st.cycles + bubbles;
           now := !now + bubbles
         end;
         pc := !next_pc
       done
     | _ ->
       (* ================= INSTRUMENTED LOOP ======================== *)
       (* Same phases over the same predecode, plus the event sink, the
          trace printer and the tamper hook.  With a tamper hook the
          instruction stream may be rewritten under us, so each fetch
          compares the live slots against the records the predecode was
          built from and re-decodes the bundle when they differ —
          injected corruption is decoded fresh, restored slots go back
          to the predecoded fast path. *)
       let psrc = pre.Predecode.p_insts in
       let fetch_bundle pcv =
         match tamper with
         | None -> bundles.(pcv)
         | Some _ ->
           let base = pcv * w in
           let clean = ref true in
           for k = 0 to w - 1 do
             if not (insts.(base + k) == psrc.(base + k)) then clean := false
           done;
           if !clean then bundles.(pcv)
           else Predecode.decode_bundle cfg insts pcv w
       in
       while not !halted && !now < until do
         if !now > fuel then trap_ T_fuel "out of fuel after %d cycles" fuel;
         if !pc < 0 || !pc >= n_bundles then
           trap_ T_bad_pc "PC %d outside code (cycle %d)" !pc st.cycles;
         (match tamper with
          | Some f ->
            f { m_gprs = gprs; m_preds = preds; m_btrs = btrs; m_mem = mem;
                m_insts = insts; m_issue_width = w; m_pc = !pc; m_cycle = !now }
          | None -> ());
         let pcv = !pc in
         let b = fetch_bundle pcv in
         (match b.Predecode.b_fetch_trap with
          | Some msg -> raise (Trap (T_illegal_op, msg))
          | None -> ());
         let rg = b.Predecode.b_rg in
         let rp = b.Predecode.b_rp in
         let rb = b.Predecode.b_rb in
         ready_cycle := 0;
         for j = 0 to Array.length rg - 1 do
           let r = gpr_ready.(rg.(j)) in
           if r > !ready_cycle then ready_cycle := r
         done;
         for j = 0 to Array.length rp - 1 do
           let r = pred_ready.(rp.(j)) in
           if r > !ready_cycle then ready_cycle := r
         done;
         for j = 0 to Array.length rb - 1 do
           let r = btr_ready.(rb.(j)) in
           if r > !ready_cycle then ready_cycle := r
         done;
         if !ready_cycle > !now then begin
           (match sink with
            | Some f ->
              f (Ev_stall { at = !now; pc = pcv; cause = S_operand;
                            cycles = !ready_cycle - !now })
            | None -> ());
           st.operand_stalls <- st.operand_stalls + (!ready_cycle - !now);
           st.cycles <- st.cycles + (!ready_cycle - !now);
           now := !ready_cycle
         end;
         port_ops := b.Predecode.b_wg;
         if fwd then begin
           let nowv = !now in
           for j = 0 to Array.length rg - 1 do
             let fwd_hit = gpr_ready.(rg.(j)) = nowv && nowv > 0 in
             if not fwd_hit then incr port_ops
           done
         end
         else port_ops := !port_ops + Array.length rg;
         if !port_ops > budget then begin
           let extra = ((!port_ops + budget - 1) / budget) - 1 in
           (match sink with
            | Some f when extra > 0 ->
              f (Ev_stall { at = !now; pc = pcv; cause = S_port; cycles = extra })
            | _ -> ());
           st.port_stalls <- st.port_stalls + extra;
           st.cycles <- st.cycles + extra;
           now := !now + extra
         end;
         let slots = b.Predecode.b_slots in
         for k = 0 to w - 1 do
           let s = slots.(k) in
           let r1 = s.Predecode.x_s1r in
           vals1.(k) <- (if r1 >= 0 then gprs.(r1) else s.Predecode.x_s1v);
           let r2 = s.Predecode.x_s2r in
           vals2.(k) <- (if r2 >= 0 then gprs.(r2) else s.Predecode.x_s2v);
           let g = s.Predecode.x_guard in
           enabled.(k) <- (g = 0 || preds.(g));
           let bp = s.Predecode.x_bp in
           if s.Predecode.x_kind = 7 (* k_brc *) && bp >= 0 then
             branch_pred.(k) <- preds.(bp)
         done;
         (match b.Predecode.b_p1_trap with
          | Some msg -> raise (Trap (T_illegal_op, msg))
          | None -> ());
         let cycle = !now in
         next_pc := pcv + 1;
         taken := false;
         (* Per-slot outcome, recorded only when a sink is listening. *)
         let ev_slots =
           match sink with Some _ -> Some (Array.make w Sl_empty) | None -> None
         in
         let set_slot k s = match ev_slots with Some a -> a.(k) <- s | None -> () in
         for k = 0 to w - 1 do
           let s = slots.(k) in
           let kind = s.Predecode.x_kind in
           if !taken then begin
             if kind <> 0 then set_slot k (Sl_shadowed s.Predecode.x_op)
           end
           else if kind = 0 then st.nops <- st.nops + 1
           else if not enabled.(k) then begin
             set_slot k (Sl_squashed s.Predecode.x_op);
             st.squashed <- st.squashed + 1;
             st.ops <- st.ops + 1
           end
           else begin
             set_slot k (Sl_op s.Predecode.x_op);
             st.ops <- st.ops + 1;
             (match s.Predecode.x_unit with
              | 0 -> st.alu_ops <- st.alu_ops + 1
              | 1 -> st.lsu_ops <- st.lsu_ops + 1
              | 2 -> st.cmpu_ops <- st.cmpu_ops + 1
              | 3 -> st.bru_ops <- st.bru_ops + 1
              | _ -> ());
             if kind = 1 then begin
               let v =
                 alu_eval s.Predecode.x_alu s.Predecode.x_op vals1.(k) vals2.(k)
               in
               let d = s.Predecode.x_dst1 in
               if d <> 0 then begin
                 gprs.(d) <- m v;
                 gpr_ready.(d) <- cycle + s.Predecode.x_lat
               end
             end
             else if kind = 2 then begin
               let ea = m (vals1.(k) + vals2.(k)) in
               if ea < 0 || ea + s.Predecode.x_bytes > mem_len then
                 trap_ T_mem_bounds "load: address %#x out of bounds (cycle %d)"
                   ea st.cycles;
               st.mem_reads <- st.mem_reads + 1;
               let v =
                 Memmap.read ~size:s.Predecode.x_size ~ext:s.Predecode.x_ext
                   mem ea
               in
               let d = s.Predecode.x_dst1 in
               if d <> 0 then begin
                 gprs.(d) <- m v;
                 gpr_ready.(d) <- cycle + s.Predecode.x_lat
               end
             end
             else if kind = 3 then begin
               let ea = m (vals1.(k) + s.Predecode.x_stoff) in
               if ea < 0 || ea + s.Predecode.x_bytes > mem_len then
                 trap_ T_mem_bounds "store: address %#x out of bounds (cycle %d)"
                   ea st.cycles;
               st.mem_writes <- st.mem_writes + 1;
               Memmap.write ~size:s.Predecode.x_size mem ea vals2.(k)
             end
             else if kind = 4 then begin
               let t = Isa.eval_cmp ~width s.Predecode.x_cond vals1.(k) vals2.(k) in
               let d1 = s.Predecode.x_dst1 in
               if d1 <> 0 then begin
                 preds.(d1) <- t;
                 pred_ready.(d1) <- cycle + s.Predecode.x_lat
               end;
               let d2 = s.Predecode.x_dst2 in
               if d2 <> 0 then begin
                 preds.(d2) <- not t;
                 pred_ready.(d2) <- cycle + s.Predecode.x_lat
               end
             end
             else if kind = 5 then begin
               btrs.(s.Predecode.x_dst1) <- vals1.(k);
               btr_ready.(s.Predecode.x_dst1) <- cycle + s.Predecode.x_lat
             end
             else if kind = 6 then begin
               let bi = s.Predecode.x_btr in
               if bi >= 0 then begin next_pc := btrs.(bi); taken := true end
               else trap_ T_illegal_op "BRU operand must be a BTR index"
             end
             else if kind = 7 then begin
               if branch_pred.(k) = s.Predecode.x_want then begin
                 let bi = s.Predecode.x_btr in
                 if bi >= 0 then begin next_pc := btrs.(bi); taken := true end
                 else trap_ T_illegal_op "branch operand must be a BTR index"
               end
             end
             else if kind = 8 then begin
               let bi = s.Predecode.x_btr in
               if bi >= 0 then begin
                 let d = s.Predecode.x_dst1 in
                 if d <> 0 then begin
                   gprs.(d) <- m (pcv + 1);
                   gpr_ready.(d) <- cycle + s.Predecode.x_lat
                 end;
                 next_pc := btrs.(bi);
                 taken := true
               end
               else trap_ T_illegal_op "BRL operand must be a BTR index"
             end
             else begin (* k_halt *)
               halted := true;
               ret := gprs.(3);
               taken := true
             end
           end
         done;
         (match trace with
          | Some ppf ->
            Format.fprintf ppf "%8d  pc=%-6d" !now pcv;
            for k = 0 to w - 1 do
              let i = insts.((pcv * w) + k) in
              if i.Isa.op <> Isa.NOP then
                if enabled.(k) then Format.fprintf ppf " | %a" Isa.pp_inst i
                else Format.fprintf ppf " | [%a]" Isa.pp_inst i
            done;
            Format.fprintf ppf "@."
          | None -> ());
         (match sink, ev_slots with
          | Some f, Some a ->
            f (Ev_issue { at = cycle; pc = pcv; slots = a; next_pc = !next_pc;
                          taken = !taken })
          | _ -> ());
         st.bundles <- st.bundles + 1;
         st.cycles <- st.cycles + 1;
         now := !now + 1;
         if !taken && not !halted then begin
           (* Taken branch: refill the front of the pipeline — one bubble
              per stage before execute (1 in the paper's 2-stage
              prototype). *)
           (match sink with
            | Some f when bubbles > 0 ->
              f (Ev_stall { at = !now; pc = pcv; cause = S_branch;
                            cycles = bubbles })
            | _ -> ());
           st.branch_bubbles <- st.branch_bubbles + bubbles;
           st.cycles <- st.cycles + bubbles;
           now := !now + bubbles
         end;
         pc := !next_pc
       done
   with Trap (cause, msg) ->
     (* Graceful termination: freeze the architectural state, record the
        fault, and fall through to the normal result path.  [ret] reflects
        r3 at the trap so partial results remain observable. *)
     ret := gprs.(3);
     trap_info :=
       Some { tr_cause = cause; tr_pc = !pc; tr_cycle = st.cycles; tr_message = msg });
  ms.s_pc <- !pc;
  ms.s_cycle <- !now;
  ms.s_halted <- !halted;
  ms.s_ret <- !ret;
  ms.s_trap <- !trap_info

let advance ?(fuel = default_fuel) ~until st =
  if not (finished st) then
    exec ~fuel ~until ~insts:st.s_pre.Predecode.p_insts
      st.s_pre.Predecode.p_bundles st

let step_corrupted ?(fuel = default_fuel) st ~slot inst =
  if not (finished st) then begin
    let pre = st.s_pre in
    let w = pre.Predecode.p_w in
    if slot < 0 || slot >= w then invalid_arg "Epic_sim.step_corrupted: slot";
    let bundles = pre.Predecode.p_bundles in
    let pc = st.s_pc in
    let bundles =
      if pc < 0 || pc >= Array.length bundles then bundles
      else begin
        let b = Array.copy bundles in
        b.(pc) <-
          Predecode.decode_bundle ~subst:(slot, inst) st.s_cfg
            pre.Predecode.p_insts pc w;
        b
      end
    in
    exec ~fuel ~until:(st.s_cycle + 1) ~insts:pre.Predecode.p_insts bundles st
  end

let run ?(fuel = default_fuel) ?trace ?sink ?tamper ?pre (cfg : Config.t)
    ~(image : A.image) ~(mem : Bytes.t) ?(entry = 0) () =
  let pre = checked_pre ~tampered:(tamper <> None) cfg image pre in
  let st = make_state cfg pre mem entry in
  (match trace, sink, tamper with
   | None, None, None -> advance ~fuel ~until:max_int st
   | _ ->
     exec ~fuel ~until:max_int ?trace ?sink ?tamper ~insts:image.A.im_insts
       pre.Predecode.p_bundles st);
  result st

let run_exn ?fuel ?trace ?sink ?tamper ?pre cfg ~image ~mem ?entry () =
  let r = run ?fuel ?trace ?sink ?tamper ?pre cfg ~image ~mem ?entry () in
  match r.trap with
  | None -> r
  | Some t ->
    raise
      (Sim_error
         (Diag.errorf
            ~code:("sim/trap-" ^ string_of_trap_cause t.tr_cause)
            ~context:
              [ ("pc", string_of_int t.tr_pc);
                ("cycle", string_of_int t.tr_cycle) ]
            "%a" pp_trap t))

let pp_stats ppf st =
  Format.fprintf ppf
    "@[<v>cycles          %d@,bundles         %d@,operations      %d@,\
     nop slots       %d@,squashed        %d@,operand stalls  %d@,\
     port stalls     %d@,branch bubbles  %d@,memory reads    %d@,\
     memory writes   %d@,ALU/LSU/CMPU/BRU %d/%d/%d/%d@,ILP             %.2f@]"
    st.cycles st.bundles st.ops st.nops st.squashed st.operand_stalls
    st.port_stalls st.branch_bubbles st.mem_reads st.mem_writes st.alu_ops
    st.lsu_ops st.cmpu_ops st.bru_ops (ilp st)

(* Deterministic fault-injection campaigns over the cycle-level simulator.

   The fault model is the classic single-event-upset study: one transient
   bit flip per run, in an architectural structure (GPR, predicate, BTR,
   data memory, or a fetched instruction word), at a chosen cycle.  Each
   injected run is classified against a clean golden run:

   - masked:  the program still halts with the golden return value and a
              bit-identical final data memory;
   - SDC:     silent data corruption — halts cleanly but the return value
              or final memory differs;
   - trap:    the architectural trap model caught the fault (bad PC,
              memory bounds, illegal operation);
   - timeout: the watchdog fuel (a multiple of the golden cycle count)
              ran out — the fault sent the program into a loop.

   Everything is driven by the repository's xorshift32 PRNG with an
   explicit seed, so a campaign re-run with the same seed reproduces the
   identical fault list and the identical report. *)

module Isa = Epic_isa
module Diag = Epic_diag
module Config = Epic_config
module Enc = Epic_encoding
module A = Epic_asm.Aunit
module Sim = Epic_sim
module Prng = Epic_workloads.Prng
module Json = Epic_profile.Json

type target =
  | F_gpr   (* general-purpose register bit *)
  | F_pred  (* predicate register (1-bit: flip = negate) *)
  | F_btr   (* branch-target register bit *)
  | F_mem   (* data-memory byte bit *)
  | F_inst  (* fetched instruction word bit (transient, one fetch) *)

let all_targets = [ F_gpr; F_pred; F_btr; F_mem; F_inst ]

let string_of_target = function
  | F_gpr -> "gpr"
  | F_pred -> "pred"
  | F_btr -> "btr"
  | F_mem -> "mem"
  | F_inst -> "inst"

let target_of_string = function
  | "gpr" -> Some F_gpr
  | "pred" -> Some F_pred
  | "btr" -> Some F_btr
  | "mem" -> Some F_mem
  | "inst" -> Some F_inst
  | _ -> None

type fault = {
  f_target : target;
  f_cycle : int;  (* first cycle at (or after) which the flip fires *)
  f_index : int;  (* register index / byte address / issue slot *)
  f_bit : int;    (* bit position within the structure *)
}

type outcome =
  | O_masked
  | O_sdc
  | O_trap of Sim.trap_cause
  | O_timeout

let string_of_outcome = function
  | O_masked -> "masked"
  | O_sdc -> "sdc"
  | O_trap c -> "trap:" ^ Sim.string_of_trap_cause c
  | O_timeout -> "timeout"

let pp_fault ppf f =
  Format.fprintf ppf "%s[%d] bit %d @ cycle %d"
    (string_of_target f.f_target) f.f_index f.f_bit f.f_cycle

(* ------------------------------------------------------------------ *)
(* Single injected run.                                                *)

let copy_image (image : A.image) =
  { image with A.im_insts = Array.copy image.A.im_insts }

let classify ~golden_ret ~golden_mem (r : Sim.result) =
  match r.Sim.trap with
  | Some t when t.Sim.tr_cause = Sim.T_fuel -> O_timeout
  | Some t -> O_trap t.Sim.tr_cause
  | None ->
    if r.Sim.ret = golden_ret && Bytes.equal r.Sim.mem golden_mem then O_masked
    else O_sdc

(* How an injected run ended: at the flip (the flip changed nothing the
   program can observe, or never fired), at a re-convergence check, or
   at HALT, a trap or the watchdog. *)
type settle = At_flip | Reconverged | To_end

(* The injected run is compared with the fault-free one [first_check]
   cycles after the flip, then at doubling distances up to [horizon];
   past the horizon it runs to its end.  Most masked flips settle within
   a few hundred cycles, and each check costs a memory compare. *)
let first_check = 64
let horizon = 1 lsl 12

(* The simulator states one sequence of injections works in, allocated
   once and reused by blit: a cursor on the fault-free run, the injected
   run forked from it, and a lookahead copy of the cursor that the
   injected run is compared with.  Without a lookahead ([look] = None)
   every injection runs to its end, and [inj] is the cursor itself.  The
   encode table is per lane because [Lazy] is not safe to force from
   several domains. *)
type lane = {
  cursor : Sim.state;
  inj : Sim.state;
  look : Sim.state option;
  table : Enc.table Lazy.t;
}

let lane ~settle ~pre (cfg : Config.t) ~(image : A.image) ~mem ~entry =
  let state mem = Sim.start ~pre cfg ~image ~mem ~entry () in
  let cursor = state (Bytes.copy mem) in
  let scratch () = state (Bytes.create (Bytes.length mem)) in
  { cursor;
    inj = (if settle then scratch () else cursor);
    look = (if settle then Some (scratch ()) else None);
    table = lazy (Enc.make_table cfg) }

(* Inject [fault] into the run the lane's cursor is on.  The cursor only
   moves forward, so a lane's faults must come in cycle order.  The flip
   fires at the first iteration top whose cycle is >= [f_cycle], as a
   tamper hook called at every top would fire it.  With a lookahead, a
   run whose state re-converges with the cursor's is masked: that is
   only sound when the cursor is the golden run and [fuel] covers it,
   which [campaign] guarantees.  Returns the outcome, how the run
   settled, and the cycles the injected run simulated after the flip. *)
let run_fault lane (cfg : Config.t) ~(image : A.image) ~fuel ~golden_ret
    ~golden_mem fault =
  let cur = lane.cursor in
  Sim.advance ~fuel ~until:fault.f_cycle cur;
  if Sim.finished cur then
    (* The run ended before the flip could fire. *)
    (classify ~golden_ret ~golden_mem (Sim.result cur), At_flip, 0)
  else begin
    let inj = lane.inj in
    if inj != cur then Sim.blit ~src:cur ~dst:inj;
    let c0 = inj.Sim.s_cycle in
    let i = fault.f_index and mask = 1 lsl fault.f_bit in
    (match fault.f_target with
     | F_gpr -> inj.Sim.s_gprs.(i) <- inj.Sim.s_gprs.(i) lxor mask
     | F_pred -> inj.Sim.s_preds.(i) <- not inj.Sim.s_preds.(i)
     | F_btr -> inj.Sim.s_btrs.(i) <- inj.Sim.s_btrs.(i) lxor mask
     | F_mem ->
       let b = Char.code (Bytes.get inj.Sim.s_mem i) in
       Bytes.set inj.Sim.s_mem i (Char.chr (b lxor (1 lsl (fault.f_bit land 7))))
     | F_inst ->
       (* Corrupt one word of the bundle about to be fetched, for that
          one fetch: encode the clean instruction, flip the bit, decode
          the junk back (decode is total, so any pattern yields an
          instruction — possibly the ILLEGAL marker the simulator traps
          on).  At a pc outside the code the fetch traps first. *)
       let pc = inj.Sim.s_pc in
       if pc >= 0 && pc < Sim.Predecode.n_bundles inj.Sim.s_pre then begin
         let t = Lazy.force lane.table in
         let w = image.A.im_issue_width in
         let slot = i mod w in
         let word = Enc.encode t cfg image.A.im_insts.((pc * w) + slot) in
         let word = Int64.logxor word (Int64.shift_left 1L fault.f_bit) in
         Sim.step_corrupted ~fuel inj ~slot (Enc.decode t cfg word)
       end);
    let settled =
      match lane.look with
      | None -> None
      | Some _ when fault.f_target <> F_inst && Sim.same_future inj cur ->
        Some At_flip
      | Some look ->
        Sim.blit ~src:cur ~dst:look;
        let rec check k =
          if k > horizon then None
          else begin
            Sim.advance ~fuel ~until:(c0 + k) look;
            Sim.advance ~fuel ~until:(c0 + k) inj;
            if Sim.finished inj || Sim.finished look then None
            else if Sim.same_future inj look then Some Reconverged
            else check (2 * k)
          end
        in
        check first_check
    in
    match settled with
    | Some s -> (O_masked, s, inj.Sim.s_cycle - c0)
    | None ->
      Sim.advance ~fuel ~until:max_int inj;
      ( classify ~golden_ret ~golden_mem (Sim.result inj),
        To_end,
        inj.Sim.s_cycle - c0 )
  end

(* Run the program once with [fault] injected and classify the outcome
   against the golden run.  The memory is copied and the image only
   read, so the caller's structures are never corrupted.  An instruction
   flip is transient: the corrupted word lives for exactly one fetch (an
   SEU on the fetch path, not a stuck-at fault in instruction memory).
   The run starts from cycle 0 and always runs to its end, so the
   outcome holds whatever [golden_ret], [golden_mem] and [fuel] are. *)
let inject ?pre (cfg : Config.t) ~(image : A.image) ~mem ~entry ~fuel
    ~golden_ret ~golden_mem (fault : fault) =
  let pre =
    match pre with Some p -> p | None -> Sim.Predecode.of_image cfg image
  in
  let lane = lane ~settle:false ~pre cfg ~image ~mem ~entry in
  let o, _, _ = run_fault lane cfg ~image ~fuel ~golden_ret ~golden_mem fault in
  o

(* ------------------------------------------------------------------ *)
(* Campaign: per-structure AVF table.                                  *)

type row = {
  r_target : target;
  r_masked : int;
  r_sdc : int;
  r_trap : int;
  r_timeout : int;
}

let row_runs r = r.r_masked + r.r_sdc + r.r_trap + r.r_timeout

(* Architectural vulnerability: fraction of injected flips that visibly
   derailed the program (anything but masked). *)
let row_avf r =
  let n = row_runs r in
  if n = 0 then 0.0 else float_of_int (n - r.r_masked) /. float_of_int n

type effort = {
  ef_at_flip : int;
  ef_reconverged : int;
  ef_to_end : int;
  ef_cycles : int;
}

type report = {
  rp_seed : int;
  rp_runs : int;
  rp_fuel : int;
  rp_golden_ret : int;
  rp_golden_cycles : int;
  rp_rows : row list;
  rp_faults : (fault * outcome) list;
  rp_effort : effort;
}

let golden ?fuel ?pre (cfg : Config.t) ~image ~mem ~entry =
  let g =
    Sim.run ?fuel ?pre cfg ~image:(copy_image image) ~mem:(Bytes.copy mem)
      ~entry ()
  in
  (match g.Sim.trap with
   | Some t ->
     Diag.raisef ~code:"fault/golden-trap"
       "golden (fault-free) run trapped: %s"
       (Format.asprintf "%a" Sim.pp_trap t)
   | None -> ());
  g

let draw_fault rng (cfg : Config.t) ~issue_width ~mem_len ~golden_cycles target =
  let draw bound = if bound <= 1 then 0 else Prng.next rng mod bound in
  let cycle = draw golden_cycles in
  let index, bit =
    match target with
    | F_gpr ->
      (* r0 is hardwired; flipping it would violate the architecture, not
         model a storage fault. *)
      (1 + draw (cfg.Config.n_gprs - 1), draw cfg.Config.width)
    | F_pred -> (1 + draw (cfg.Config.n_preds - 1), 0)
    | F_btr ->
      (* BTRs hold bundle indices: flip within the branch-literal range so
         the corrupted target is representative of reachable code sizes. *)
      (draw cfg.Config.n_btrs, draw (cfg.Config.src_bits - 1))
    | F_mem -> (draw mem_len, draw 8)
    | F_inst -> (draw issue_width, draw (Config.inst_bits cfg))
  in
  { f_target = target; f_cycle = cycle; f_index = index; f_bit = bit }

let campaign ?(seed = 1) ?(runs = 32) ?(targets = all_targets)
    ?(fuel_factor = 4) ?(jobs = 1) ?pre (cfg : Config.t) ~(image : A.image)
    ~(mem : Bytes.t) ~entry () =
  if seed land 0xFFFFFFFF = 0 then
    Diag.raisef ~code:"fault/seed" "campaign seed must be non-zero";
  if runs < 1 then Diag.raisef ~code:"fault/runs" "runs must be >= 1";
  if fuel_factor < 1 then
    Diag.raisef ~code:"fault/fuel-factor" "fuel_factor must be >= 1";
  if Bytes.length mem = 0 then
    Diag.raisef ~code:"fault/mem" "data memory is empty";
  (* Decode the image once; the golden run and every injected run (often
     thousands, across domains) share the immutable predecode. *)
  let pre =
    match pre with Some p -> p | None -> Sim.Predecode.of_image cfg image
  in
  let g = golden ~pre cfg ~image ~mem ~entry in
  let golden_cycles = g.Sim.stats.Sim.cycles in
  let golden_ret = g.Sim.ret in
  let golden_mem = g.Sim.mem in
  (* Watchdog: a faulting run that has not halted after [fuel_factor]
     times the golden cycle count is classified as a timeout.  The slack
     constant keeps trivially short programs from racing the watchdog. *)
  let fuel = (fuel_factor * golden_cycles) + 64 in
  let rng = Prng.create ~seed () in
  (* Draw every fault site up front, in exactly the order the sequential
     loop drew them (the PRNG stream never depends on outcomes). *)
  let n_targets = List.length targets in
  let faults =
    Array.make (n_targets * runs)
      { f_target = F_gpr; f_cycle = 0; f_index = 0; f_bit = 0 }
  in
  List.iteri
    (fun t target ->
      for k = 0 to runs - 1 do
        faults.((t * runs) + k) <-
          draw_fault rng cfg ~issue_width:image.A.im_issue_width
            ~mem_len:(Bytes.length mem) ~golden_cycles target
      done)
    targets;
  (* Then sort them by cycle and cut the sorted list into contiguous
     chunks, fanned out across domains.  Each chunk walks a golden cursor
     forward through its faults and forks every injected run from it (on
     its own memory); the image and predecode are shared read-only.  An
     outcome is a pure function of its fault, and outcomes are keyed by
     draw index, so the report is bit-identical whatever [jobs] is.  More
     chunks than domains balance the load; each chunk's cursor starts at
     cycle 0, so more chunks also cost more golden prefix. *)
  let n = Array.length faults in
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun a b -> compare faults.(a).f_cycle faults.(b).f_cycle)
    order;
  let chunks = max 1 (min n (if jobs <= 1 then 1 else 4 * jobs)) in
  let results =
    Epic_exec.Pool.run ~jobs chunks (fun c ->
        let lo = c * n / chunks and hi = (c + 1) * n / chunks in
        let lane = lane ~settle:true ~pre cfg ~image ~mem ~entry in
        Array.init (hi - lo) (fun j ->
            run_fault lane cfg ~image ~fuel ~golden_ret ~golden_mem
              faults.(order.(lo + j))))
  in
  let settled = Array.make n (O_masked, At_flip, 0) in
  Array.iteri
    (fun c rs ->
      let lo = c * n / chunks in
      Array.iteri (fun j r -> settled.(order.(lo + j)) <- r) rs)
    results;
  let outcomes = Array.map (fun (o, _, _) -> o) settled in
  let count s = Array.fold_left (fun a (_, s', _) -> if s' = s then a + 1 else a) 0 settled in
  let effort =
    { ef_at_flip = count At_flip;
      ef_reconverged = count Reconverged;
      ef_to_end = count To_end;
      ef_cycles = Array.fold_left (fun a (_, _, c) -> a + c) 0 settled }
  in
  let rows =
    List.mapi
      (fun t target ->
        let masked = ref 0 and sdc = ref 0 and trap = ref 0 and timeout = ref 0 in
        for k = 0 to runs - 1 do
          match outcomes.((t * runs) + k) with
          | O_masked -> incr masked
          | O_sdc -> incr sdc
          | O_trap _ -> incr trap
          | O_timeout -> incr timeout
        done;
        { r_target = target; r_masked = !masked; r_sdc = !sdc;
          r_trap = !trap; r_timeout = !timeout })
      targets
  in
  { rp_seed = seed; rp_runs = runs; rp_fuel = fuel; rp_golden_ret = golden_ret;
    rp_golden_cycles = golden_cycles; rp_rows = rows;
    rp_faults = List.init n (fun i -> (faults.(i), outcomes.(i)));
    rp_effort = effort }

let total_runs rp = List.fold_left (fun a r -> a + row_runs r) 0 rp.rp_rows

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let pp_report ppf rp =
  Format.fprintf ppf
    "@[<v>fault-injection campaign: seed=%d runs/target=%d fuel=%d@,\
     golden run: ret=%d cycles=%d@,@,\
     %-8s %7s %7s %7s %8s %7s@,"
    rp.rp_seed rp.rp_runs rp.rp_fuel rp.rp_golden_ret rp.rp_golden_cycles
    "target" "masked" "sdc" "trap" "timeout" "AVF";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-8s %7d %7d %7d %8d %6.1f%%@,"
        (string_of_target r.r_target) r.r_masked r.r_sdc r.r_trap r.r_timeout
        (100.0 *. row_avf r))
    rp.rp_rows;
  Format.fprintf ppf "@]"

let json_of_fault (f, o) =
  Json.Obj
    [ ("target", Json.Str (string_of_target f.f_target));
      ("cycle", Json.Int f.f_cycle);
      ("index", Json.Int f.f_index);
      ("bit", Json.Int f.f_bit);
      ("outcome", Json.Str (string_of_outcome o)) ]

let report_to_json ?(faults = false) rp =
  let rows =
    List.map
      (fun r ->
        Json.Obj
          [ ("target", Json.Str (string_of_target r.r_target));
            ("masked", Json.Int r.r_masked);
            ("sdc", Json.Int r.r_sdc);
            ("trap", Json.Int r.r_trap);
            ("timeout", Json.Int r.r_timeout);
            ("avf", Json.Float (row_avf r)) ])
      rp.rp_rows
  in
  Json.Obj
    ([ ("seed", Json.Int rp.rp_seed);
       ("runs_per_target", Json.Int rp.rp_runs);
       ("fuel", Json.Int rp.rp_fuel);
       ("golden_ret", Json.Int rp.rp_golden_ret);
       ("golden_cycles", Json.Int rp.rp_golden_cycles);
       ("rows", Json.List rows) ]
     @ if faults then [ ("faults", Json.List (List.map json_of_fault rp.rp_faults)) ]
       else [])

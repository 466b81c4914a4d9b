(* Predecode: the first tier of the two-tier simulation engine.

   Decoding an EPIC image is pure — an instruction's register sets, its
   dispatch class and its latency depend only on the instruction record
   and the configuration — so the simulator used to redo per cycle what
   can be done once per (image x config): [Isa.reads]/[Isa.writes]
   allocated fresh lists for every slot of every fetched bundle, and
   [Config.latency] walked the override alist per executed operation.
   This module resolves all of it up front into flat records the cycle
   loop can consume with plain int loads and no allocation.

   Legality checking moves here too, but the trap TAXONOMY of the old
   per-cycle checks is preserved exactly: a corrupted image must trap at
   the same program point, with the same cause and message, as it did
   when the checks ran inline.  Predecode therefore never raises — it
   records the first decode-stage failure of each bundle
   ([b_fetch_trap]), the first malformed conditional-branch predicate
   operand ([b_p1_trap]) and per-slot malformed branch targets
   ([x_btr] = -1), and the simulator raises them at the original points:
   fetch, issue (phase 1) and execute respectively.  A bundle that is
   never reached never traps, exactly as before.

   A [t] is immutable after construction and holds no reference to
   mutable simulator state, so one predecode may be shared, without
   copying or locking, by concurrent runs on different domains — the
   same contract as the image itself (see epic_sim.mli).  Tampered runs
   (a [tamper] hook may rewrite the instruction stream in place, as the
   tests' from-zero reference injector does) detect touched slots by
   physical comparison against [p_insts] and re-decode just those
   bundles; see [Epic_sim.run].  Fault injection runs on the fast loop
   instead: a flipped instruction word is one bundle re-decoded with
   [decode_bundle ~subst] for exactly one fetch; see
   [Epic_sim.step_corrupted]. *)

module Isa = Epic_isa
module Config = Epic_config
module A = Epic_asm.Aunit
module Ir = Epic_mir.Ir

(* Int-coded dispatch classes: the hot loop branches on these instead of
   matching constructors (CUSTOM/LD/ST/CMPP carry payloads the loop no
   longer needs to destructure). *)
let k_nop = 0
let k_alu = 1
let k_ld = 2
let k_st = 3
let k_cmpp = 4
let k_pbrr = 5
let k_bru = 6
let k_brc = 7
let k_brl = 8
let k_halt = 9

let kind_of (op : Isa.opcode) =
  match op with
  | Isa.ADD | Isa.SUB | Isa.MPY | Isa.DIV | Isa.REM | Isa.MIN | Isa.MAX
  | Isa.ABS | Isa.AND | Isa.OR | Isa.XOR | Isa.ANDCM | Isa.NAND | Isa.NOR
  | Isa.SHL | Isa.SHR | Isa.SHRA | Isa.MOV | Isa.CUSTOM _ -> k_alu
  | Isa.LD _ | Isa.LDU _ -> k_ld
  | Isa.ST _ -> k_st
  | Isa.CMPP _ -> k_cmpp
  | Isa.PBRR -> k_pbrr
  | Isa.BRU_ -> k_bru
  | Isa.BRCT | Isa.BRCF -> k_brc
  | Isa.BRL -> k_brl
  | Isa.HALT -> k_halt
  | Isa.NOP -> k_nop

let kind_name = function
  | 0 -> "nop" | 1 -> "alu" | 2 -> "load" | 3 -> "store" | 4 -> "cmpp"
  | 5 -> "pbrr" | 6 -> "bru" | 7 -> "brc" | 8 -> "brl" | 9 -> "halt"
  | _ -> "?"

(* One resolved operation.  Source operands are encoded as a register
   index ([x_s1r] >= 0, read from the GPR file at issue) or a pre-masked
   literal ([x_s1r] < 0, value in [x_s1v]).  Memory fields, the compare
   condition and branch fields are only meaningful for the matching
   kinds; [x_btr] / [x_bp] are -1 when the corresponding operand is
   malformed (the simulator raises the original execute-/issue-time
   trap). *)
(* Int codes for the ALU sub-operations, in [Isa.eval_alu] order; the
   fast loop evaluates these inline on already-canonical operands.
   [a_custom] falls back to [Isa.eval_alu] (the name lives in [x_op]). *)
let a_add = 0
let a_sub = 1
let a_mpy = 2
let a_div = 3
let a_rem = 4
let a_min = 5
let a_max = 6
let a_abs = 7
let a_and = 8
let a_or = 9
let a_xor = 10
let a_andcm = 11
let a_nand = 12
let a_nor = 13
let a_shl = 14
let a_shr = 15
let a_shra = 16
let a_mov = 17
let a_custom = 18

let alu_code_of (op : Isa.opcode) =
  match op with
  | Isa.ADD -> a_add | Isa.SUB -> a_sub | Isa.MPY -> a_mpy
  | Isa.DIV -> a_div | Isa.REM -> a_rem | Isa.MIN -> a_min
  | Isa.MAX -> a_max | Isa.ABS -> a_abs | Isa.AND -> a_and
  | Isa.OR -> a_or | Isa.XOR -> a_xor | Isa.ANDCM -> a_andcm
  | Isa.NAND -> a_nand | Isa.NOR -> a_nor | Isa.SHL -> a_shl
  | Isa.SHR -> a_shr | Isa.SHRA -> a_shra | Isa.MOV -> a_mov
  | _ -> a_custom

type pop = {
  x_kind : int;
  x_op : Isa.opcode;   (* original opcode: CUSTOM dispatch, events, trace *)
  x_alu : int;         (* ALU sub-operation code (k_alu slots) *)
  x_unit : int;        (* 0 alu / 1 lsu / 2 cmpu / 3 bru / 4 none *)
  x_dst1 : int;
  x_dst2 : int;
  x_s1r : int;
  x_s1v : int;
  x_s2r : int;
  x_s2v : int;
  x_guard : int;
  x_lat : int;                   (* resolved result latency *)
  x_bytes : int;                 (* LD/ST access size *)
  x_size : Ir.mem_size;          (* LD/ST Memmap size *)
  x_ext : Ir.ext;                (* LD sign/zero extension *)
  x_cond : Isa.cmp_cond;         (* CMPP condition *)
  x_stoff : int;                 (* ST: dst1 * access size (EA offset) *)
  x_want : bool;                 (* BRCT: true, BRCF: false *)
  x_btr : int;                   (* branch BTR literal, -1 = malformed *)
  x_bp : int;                    (* BRCT/BRCF predicate literal, -1 = malformed *)
}

(* One bundle.  The read sets of all slots are flattened per register
   file, multiplicity preserved (the port accountant counts a register
   read twice when two operands name it, exactly as the per-slot lists
   did); [b_wg] is the bundle's GPR write-port count. *)
type pbundle = {
  b_slots : pop array;
  b_rg : int array;            (* GPR read indices *)
  b_rp : int array;            (* predicate read indices *)
  b_rb : int array;            (* BTR read indices *)
  b_wg : int;                  (* GPR writes (port accounting) *)
  b_fetch_trap : string option;  (* first decode-stage failure, slot order *)
  b_p1_trap : string option;     (* first malformed branch-predicate operand *)
}

(* [p_live_*] are the registers some bundle of the image can read, per
   file, ascending and in range: every source, guard, branch predicate
   and branch-target operand of every slot, plus r3 (HALT returns it).
   Two machine states at the same pc and cycle that agree on these and
   on memory have the same future ([Epic_sim.same_future]). *)
type t = {
  p_cfg : Config.t;            (* configuration the image was decoded under *)
  p_insts : Isa.inst array;    (* exactly the instruction stream decoded *)
  p_w : int;
  p_bundles : pbundle array;
  p_live_g : int array;
  p_live_p : int array;
  p_live_b : int array;
}

(* Decode-stage validation, hoisted from the old per-cycle [check_inst]:
   same checks, same order (operation support, then reads, then writes),
   same messages — but returned instead of raised. *)
let fetch_trap_of (cfg : Config.t) pc slot (i : Isa.inst) =
  if not (Config.op_supported cfg i.Isa.op) then
    Some
      (Printf.sprintf "illegal or unimplemented operation %s (pc %d slot %d)"
         (Isa.string_of_opcode i.Isa.op) pc slot)
  else
    let bad (file, idx) =
      let limit =
        match (file : Isa.regfile) with
        | Isa.R_gpr -> cfg.Config.n_gprs
        | Isa.R_pred -> cfg.Config.n_preds
        | Isa.R_btr -> cfg.Config.n_btrs
      in
      if idx < 0 || idx >= limit then
        Some
          (Printf.sprintf
             "%s register index %d out of range (pc %d slot %d, %s)"
             (match file with
              | Isa.R_gpr -> "GPR"
              | Isa.R_pred -> "predicate"
              | Isa.R_btr -> "BTR")
             idx pc slot
             (Isa.string_of_opcode i.Isa.op))
      else None
    in
    match List.find_map bad (Isa.reads i) with
    | Some _ as r -> r
    | None -> List.find_map bad (Isa.writes i)

(* The old phase-1 validation of a conditional branch's predicate
   operand, returned instead of raised. *)
let p1_trap_of (cfg : Config.t) (i : Isa.inst) =
  match i.Isa.op with
  | Isa.BRCT | Isa.BRCF ->
    (match i.Isa.src2 with
     | Isa.Simm p when p >= 0 && p < cfg.Config.n_preds -> None
     | Isa.Simm p ->
       Some (Printf.sprintf "branch predicate index %d out of range" p)
     | Isa.Sreg _ -> Some "branch predicate operand must be a literal index")
  | _ -> None

let decode_slot (cfg : Config.t) (i : Isa.inst) =
  let m v = Isa.Word.mask cfg.Config.width v in
  let op = i.Isa.op in
  let s1r, s1v =
    match i.Isa.src1 with Isa.Sreg r -> (r, 0) | Isa.Simm v -> (-1, m v)
  in
  let s2r, s2v =
    match i.Isa.src2 with Isa.Sreg r -> (r, 0) | Isa.Simm v -> (-1, m v)
  in
  let bytes, size, ext =
    match op with
    | Isa.LD mw | Isa.LDU mw | Isa.ST mw ->
      let size =
        match mw with
        | Isa.M_byte -> Ir.I8
        | Isa.M_half -> Ir.I16
        | Isa.M_word -> Ir.I32
      in
      let ext = match op with Isa.LD _ -> Ir.Sx | _ -> Ir.Zx in
      (Isa.bytes_of_mem_width mw, size, ext)
    | _ -> (0, Ir.I8, Ir.Zx)
  in
  { x_kind = kind_of op;
    x_op = op;
    x_alu = alu_code_of op;
    x_unit =
      (match Isa.unit_of op with
       | Isa.U_alu -> 0 | Isa.U_lsu -> 1 | Isa.U_cmpu -> 2
       | Isa.U_bru -> 3 | Isa.U_none -> 4);
    x_dst1 = i.Isa.dst1;
    x_dst2 = i.Isa.dst2;
    x_s1r = s1r; x_s1v = s1v; x_s2r = s2r; x_s2v = s2v;
    x_guard = i.Isa.guard;
    x_lat = Config.latency cfg op;
    x_bytes = bytes; x_size = size; x_ext = ext;
    x_cond = (match op with Isa.CMPP c -> c | _ -> Isa.C_eq);
    x_stoff =
      (match op with
       | Isa.ST mw -> i.Isa.dst1 * Isa.bytes_of_mem_width mw
       | _ -> 0);
    x_want = (op = Isa.BRCT);
    x_btr =
      (match op with
       | Isa.BRU_ | Isa.BRCT | Isa.BRCF | Isa.BRL ->
         (match i.Isa.src1 with Isa.Simm b -> b | Isa.Sreg _ -> -1)
       | _ -> -1);
    x_bp =
      (match op with
       | Isa.BRCT | Isa.BRCF ->
         (match i.Isa.src2 with
          | Isa.Simm p when p >= 0 && p < cfg.Config.n_preds -> p
          | _ -> -1)
       | _ -> -1) }

(* [subst] = (slot, inst) decodes the bundle as if that slot held
   [inst] instead of the image's word. *)
let decode_bundle ?subst (cfg : Config.t) (insts : Isa.inst array) pc w =
  let base = pc * w in
  let inst k =
    match subst with
    | Some (slot, i) when slot = k -> i
    | _ -> insts.(base + k)
  in
  let slots = Array.init w (fun k -> decode_slot cfg (inst k)) in
  let ft = ref None and p1 = ref None in
  let rg = ref [] and rp = ref [] and rb = ref [] in
  let wg = ref 0 in
  for k = 0 to w - 1 do
    let i = inst k in
    if i.Isa.op <> Isa.NOP then begin
      (match !ft with
       | None -> ft := fetch_trap_of cfg pc k i
       | Some _ -> ());
      (match !p1 with None -> p1 := p1_trap_of cfg i | Some _ -> ())
    end;
    List.iter
      (fun (file, idx) ->
        match (file : Isa.regfile) with
        | Isa.R_gpr -> rg := idx :: !rg
        | Isa.R_pred -> rp := idx :: !rp
        | Isa.R_btr -> rb := idx :: !rb)
      (Isa.reads i);
    List.iter
      (fun (file, _) ->
        match (file : Isa.regfile) with
        | Isa.R_gpr -> incr wg
        | Isa.R_pred | Isa.R_btr -> ())
      (Isa.writes i)
  done;
  { b_slots = slots;
    b_rg = Array.of_list (List.rev !rg);
    b_rp = Array.of_list (List.rev !rp);
    b_rb = Array.of_list (List.rev !rb);
    b_wg = !wg;
    b_fetch_trap = !ft;
    b_p1_trap = !p1 }

let live_sets (cfg : Config.t) bundles =
  let g = Array.make cfg.Config.n_gprs false in
  let p = Array.make cfg.Config.n_preds false in
  let b = Array.make cfg.Config.n_btrs false in
  let mark a r = if r >= 0 && r < Array.length a then a.(r) <- true in
  mark g 3;
  Array.iter
    (fun pb ->
      Array.iter (mark g) pb.b_rg;
      Array.iter (mark p) pb.b_rp;
      Array.iter (mark b) pb.b_rb;
      Array.iter
        (fun x ->
          mark g x.x_s1r;
          mark g x.x_s2r;
          mark p x.x_guard;
          mark p x.x_bp;
          mark b x.x_btr)
        pb.b_slots)
    bundles;
  let indices a =
    Array.of_list (List.filter (fun r -> a.(r)) (List.init (Array.length a) Fun.id))
  in
  (indices g, indices p, indices b)

let of_image (cfg : Config.t) (image : A.image) =
  let w = image.A.im_issue_width in
  let insts = image.A.im_insts in
  (* Truncating division: a ragged tail short of a full bundle is
     unreachable, exactly as in the old fetch logic. *)
  let n = Array.length insts / w in
  let bundles = Array.init n (fun pc -> decode_bundle cfg insts pc w) in
  let live_g, live_p, live_b = live_sets cfg bundles in
  { p_cfg = cfg;
    p_insts = insts;
    p_w = w;
    p_bundles = bundles;
    p_live_g = live_g;
    p_live_p = live_p;
    p_live_b = live_b }

(* Is [t] a valid predecode of [insts]?  Physical equality per slot is
   the fast path (cache hits and golden-run image copies share the
   records); structural equality accepts a stream that was rebuilt but
   is identical.  Cost is one pass over the image, once per run. *)
let matches_insts t (insts : Isa.inst array) =
  t.p_insts == insts
  || (Array.length t.p_insts = Array.length insts
      && begin
        let ok = ref true in
        Array.iteri
          (fun k i -> if not (i == insts.(k) || i = insts.(k)) then ok := false)
          t.p_insts;
        !ok
      end)

let same_config t (cfg : Config.t) =
  t.p_cfg == cfg || Config.fingerprint t.p_cfg = Config.fingerprint cfg

(* ---- introspection (tests, cache keying) -------------------------- *)

let n_bundles t = Array.length t.p_bundles
let issue_width t = t.p_w
let fetch_trap t pc = t.p_bundles.(pc).b_fetch_trap

let bundle_reads t pc =
  let b = t.p_bundles.(pc) in
  (Array.to_list b.b_rg, Array.to_list b.b_rp, Array.to_list b.b_rb)

let gpr_write_ports t pc = t.p_bundles.(pc).b_wg

let slot_latency t ~bundle ~slot =
  t.p_bundles.(bundle).b_slots.(slot).x_lat

let slot_kind t ~bundle ~slot =
  kind_name t.p_bundles.(bundle).b_slots.(slot).x_kind

(* Content digest of an instruction stream, for keying predecode caches
   by (config fingerprint x image).  Instruction records are plain data
   (no closures), so Marshal is stable for equal streams. *)
let image_digest (image : A.image) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (image.A.im_insts, image.A.im_issue_width) []))

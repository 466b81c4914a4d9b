(* Fault-model tests: the architectural trap taxonomy (bad PC, memory
   bounds, illegal operation, fuel watchdog), graceful termination with
   partial statistics, a-priori-known fault classifications against hand
   written programs, and determinism of seeded injection campaigns. *)

module Isa = Epic.Isa
module Config = Epic.Config
module Sim = Epic.Sim
module Fault = Epic.Fault
module A = Epic.Asm.Aunit
module Text = Epic.Asm.Text
module W = Epic.Workloads
module T = Epic.Toolchain

let cfg = Config.default

let image_of text = A.resolve cfg (Text.of_string text)

let run ?fuel ?tamper text ~mem_bytes =
  let mem = Bytes.make mem_bytes '\000' in
  Sim.run ?fuel ?tamper cfg ~image:(image_of text) ~mem ()

let trap_cause (r : Sim.result) =
  match r.Sim.trap with
  | Some t -> Some t.Sim.tr_cause
  | None -> None

let cause = Alcotest.testable
    (fun ppf c -> Format.pp_print_string ppf (Sim.string_of_trap_cause c))
    (fun a b -> a = b)

(* ---- the trap taxonomy -------------------------------------------- *)

let test_trap_bad_pc () =
  let r = run "_start:\n{ PBRR b0, #999 }\n{ BRU #0 }\n" ~mem_bytes:64 in
  Alcotest.(check (option cause)) "bad pc" (Some Sim.T_bad_pc) (trap_cause r);
  (match r.Sim.trap with
   | Some t ->
     Alcotest.(check int) "trap pc" 999 t.Sim.tr_pc;
     Alcotest.(check bool) "cycles counted" true (t.Sim.tr_cycle > 0)
   | None -> Alcotest.fail "no trap")

let test_trap_mem_bounds () =
  let r =
    run "_start:\n{ MOV r4, #1000 }\n{ LDW r3, r4, #0 }\n{ HALT }\n"
      ~mem_bytes:64
  in
  Alcotest.(check (option cause)) "mem bounds" (Some Sim.T_mem_bounds)
    (trap_cause r);
  (* Partial statistics survive the trap. *)
  Alcotest.(check bool) "partial stats" true (r.Sim.stats.Sim.cycles > 0)

let test_trap_illegal_op () =
  (* Assemble DIV under the full default configuration, then run it on a
     datapath that omits the divider: the decode-stage check must turn
     the unimplemented operation into a trap, not a crash. *)
  let image = image_of "_start:\n{ DIV r3, r4, r5 }\n{ HALT }\n" in
  let no_div =
    Config.validate_exn { cfg with Config.alu_omit = [ Isa.DIV ] }
  in
  let mem = Bytes.make 64 '\000' in
  let r = Sim.run no_div ~image ~mem () in
  Alcotest.(check (option cause)) "illegal op" (Some Sim.T_illegal_op)
    (trap_cause r)

let test_trap_fuel () =
  let r =
    run ~fuel:200 "_start:\n{ PBRR b0, @_start }\n{ BRU #0 }\n" ~mem_bytes:64
  in
  Alcotest.(check (option cause)) "fuel" (Some Sim.T_fuel) (trap_cause r);
  (match r.Sim.trap with
   | Some t -> Alcotest.(check bool) "watchdog fired late" true (t.Sim.tr_cycle >= 200)
   | None -> Alcotest.fail "no trap")

let test_clean_run_no_trap () =
  let r = run "_start:\n{ MOV r3, #42 }\n{ HALT }\n" ~mem_bytes:64 in
  Alcotest.(check (option cause)) "no trap" None (trap_cause r);
  Alcotest.(check int) "returned" 42 r.Sim.ret

let test_run_exn_wrapper () =
  let image = image_of "_start:\n{ PBRR b0, #999 }\n{ BRU #0 }\n" in
  let mem = Bytes.make 64 '\000' in
  (match Sim.run_exn cfg ~image ~mem () with
   | exception Sim.Sim_error _ -> ()
   | _ -> Alcotest.fail "expected Sim_error from run_exn on a trapping image");
  let clean = image_of "_start:\n{ MOV r3, #7 }\n{ HALT }\n" in
  let r = Sim.run_exn cfg ~image:clean ~mem () in
  Alcotest.(check int) "run_exn on clean image" 7 r.Sim.ret

(* A do-nothing tamper hook must not perturb the simulation. *)
let test_tamper_noop_identical () =
  let text =
    "_start:\n{ MOV r4, #6 }\n{ MOV r5, #0 }\n{ PBRR b0, @loop }\n\
     loop:\n{ ADD r5, r5, r4 }\n{ SUB r4, r4, #1 }\n\
     { CMPP.NE p1, p2, r4, #0 }\n{ BRCT #0, #1 }\n{ MOV r3, r5 }\n{ HALT }\n"
  in
  let plain = run text ~mem_bytes:64 in
  let hooked = run ~tamper:(fun _ -> ()) text ~mem_bytes:64 in
  Alcotest.(check int) "same return" plain.Sim.ret hooked.Sim.ret;
  Alcotest.(check int) "same cycles" plain.Sim.stats.Sim.cycles
    hooked.Sim.stats.Sim.cycles;
  Alcotest.(check bool) "same memory" true
    (Bytes.equal plain.Sim.mem hooked.Sim.mem)

(* ---- a-priori fault classifications ------------------------------- *)

(* Load a word from address 16, add one, store the result at address 20.
   Golden: mem[16..19] = 41 (big-endian), so ret = 42. *)
let p1_text =
  "_start:\n{ MOV r4, #16 }\n{ LDW r5, r4, #0 }\n{ ADD r3, r5, #1 }\n\
   { STW r4, #1, r3 }\n{ HALT }\n"

let p1_mem () =
  let mem = Bytes.make 64 '\000' in
  Bytes.set mem 19 (Char.chr 41);
  mem

let p1_inject fault =
  let image = image_of p1_text in
  let mem = p1_mem () in
  let g = Fault.golden cfg ~image ~mem ~entry:0 in
  Alcotest.(check int) "golden ret" 42 g.Sim.ret;
  Fault.inject cfg ~image ~mem ~entry:0 ~fuel:10_000 ~golden_ret:g.Sim.ret
    ~golden_mem:g.Sim.mem fault

let outc = Alcotest.testable
    (fun ppf o -> Format.pp_print_string ppf (Fault.string_of_outcome o))
    (fun a b -> a = b)

let test_classify_masked_dead_gpr () =
  (* r9 is never read: the flip is architecturally invisible. *)
  Alcotest.check outc "dead register" Fault.O_masked
    (p1_inject { Fault.f_target = Fault.F_gpr; f_cycle = 0; f_index = 9; f_bit = 3 })

let test_classify_sdc_live_mem () =
  (* Flip a bit of the word the program is about to load: silent data
     corruption in the result. *)
  Alcotest.check outc "live memory byte" Fault.O_sdc
    (p1_inject { Fault.f_target = Fault.F_mem; f_cycle = 0; f_index = 19; f_bit = 1 })

let test_classify_sdc_untouched_mem () =
  (* A flipped byte the program never touches persists into the final
     memory image, so strict memory comparison classifies it as SDC. *)
  Alcotest.check outc "untouched memory byte" Fault.O_sdc
    (p1_inject { Fault.f_target = Fault.F_mem; f_cycle = 0; f_index = 40; f_bit = 0 })

let test_classify_masked_overwritten_mem () =
  (* The store to 20..23 overwrites the flip before the program halts. *)
  Alcotest.check outc "overwritten memory byte" Fault.O_masked
    (p1_inject { Fault.f_target = Fault.F_mem; f_cycle = 0; f_index = 22; f_bit = 5 })

let test_classify_trap_address_gpr () =
  (* Flip bit 14 of the base register after MOV has executed: the load
     address becomes 16 + 16384, far outside the 64-byte memory. *)
  Alcotest.check outc "address register" (Fault.O_trap Sim.T_mem_bounds)
    (p1_inject { Fault.f_target = Fault.F_gpr; f_cycle = 1; f_index = 4; f_bit = 14 })

let test_classify_masked_inst_unused_field () =
  (* MOV ignores its src2 field, so a flip there decodes to the identical
     instruction. *)
  Alcotest.check outc "unused instruction field" Fault.O_masked
    (p1_inject { Fault.f_target = Fault.F_inst; f_cycle = 0; f_index = 0; f_bit = 5 })

let p2_text =
  "_start:\n{ MOV r4, #6 }\n{ MOV r5, #0 }\n{ PBRR b0, @loop }\n\
   loop:\n{ ADD r5, r5, r4 }\n{ SUB r4, r4, #1 }\n\
   { CMPP.NE p1, p2, r4, #0 }\n{ BRCT #0, #1 }\n{ MOV r3, r5 }\n{ HALT }\n"

let test_classify_timeout_loop_counter () =
  let image = image_of p2_text in
  let mem = Bytes.make 64 '\000' in
  let g = Fault.golden cfg ~image ~mem ~entry:0 in
  Alcotest.(check int) "golden ret" 21 g.Sim.ret;
  (* Flip a high bit of the loop counter mid-loop: the countdown now
     needs ~2^20 iterations and the watchdog fires first. *)
  let o =
    Fault.inject cfg ~image ~mem ~entry:0
      ~fuel:(4 * g.Sim.stats.Sim.cycles + 64) ~golden_ret:g.Sim.ret
      ~golden_mem:g.Sim.mem
      { Fault.f_target = Fault.F_gpr; f_cycle = 4; f_index = 4; f_bit = 20 }
  in
  Alcotest.check outc "runaway loop" Fault.O_timeout o

(* ---- campaign determinism and accounting -------------------------- *)

let p2_campaign ?(seed = 7) ?(runs = 6) () =
  let image = image_of p2_text in
  let mem = Bytes.make 64 '\000' in
  Fault.campaign ~seed ~runs cfg ~image ~mem ~entry:0 ()

let test_campaign_deterministic () =
  let r1 = p2_campaign () and r2 = p2_campaign () in
  Alcotest.(check bool) "same fault list" true
    (r1.Fault.rp_faults = r2.Fault.rp_faults);
  Alcotest.(check bool) "same rows" true (r1.Fault.rp_rows = r2.Fault.rp_rows);
  let r3 = p2_campaign ~seed:8 () in
  Alcotest.(check bool) "different seed, different faults" true
    (r1.Fault.rp_faults <> r3.Fault.rp_faults)

let test_campaign_accounting () =
  let r = p2_campaign ~runs:5 () in
  Alcotest.(check int) "golden ret recorded" 21 r.Fault.rp_golden_ret;
  Alcotest.(check int) "rows" (List.length Fault.all_targets)
    (List.length r.Fault.rp_rows);
  List.iter
    (fun row ->
      Alcotest.(check int)
        (Fault.string_of_target row.Fault.r_target)
        5 (Fault.row_runs row))
    r.Fault.rp_rows;
  Alcotest.(check int) "total runs" (5 * List.length Fault.all_targets)
    (Fault.total_runs r);
  Alcotest.(check int) "fault log length" (Fault.total_runs r)
    (List.length r.Fault.rp_faults);
  List.iter
    (fun row ->
      let avf = Fault.row_avf row in
      Alcotest.(check bool) "AVF in [0,1]" true (avf >= 0.0 && avf <= 1.0))
    r.Fault.rp_rows

let test_campaign_rejects_bad_arguments () =
  let expect_diag code f =
    match f () with
    | exception Epic.Diag.Error d ->
      Alcotest.(check string) "diag code" code d.Epic.Diag.code
    | _ -> Alcotest.failf "expected %s" code
  in
  expect_diag "fault/seed" (fun () -> p2_campaign ~seed:0 ());
  expect_diag "fault/runs" (fun () -> p2_campaign ~runs:0 ());
  (* A trapping golden run is rejected up front. *)
  expect_diag "fault/golden-trap" (fun () ->
      let image = image_of "_start:\n{ PBRR b0, #999 }\n{ BRU #0 }\n" in
      Fault.campaign cfg ~image ~mem:(Bytes.make 64 '\000') ~entry:0 ())

let test_report_json () =
  let r = p2_campaign ~runs:3 () in
  let j = Fault.report_to_json ~faults:true r in
  let s = Epic.Profile.Json.to_string j in
  Alcotest.(check bool) "mentions every target" true
    (List.for_all
       (fun t ->
         let needle = "\"" ^ Fault.string_of_target t ^ "\"" in
         let rec find i =
           i + String.length needle <= String.length s
           && (String.sub s i (String.length needle) = needle || find (i + 1))
         in
         find 0)
       Fault.all_targets)

(* ---- end-to-end over the toolchain -------------------------------- *)

let test_toolchain_campaign () =
  let bm = W.Sources.dijkstra_benchmark ~nodes:6 () in
  let a = T.compile_epic cfg ~source:bm.W.Sources.bm_source () in
  let r = T.fault_campaign ~seed:3 ~runs:2 a in
  Alcotest.(check int) "golden checksum" (bm.W.Sources.bm_expected land 0xFFFFFFFF)
    r.Fault.rp_golden_ret;
  Alcotest.(check int) "total runs" (2 * List.length Fault.all_targets)
    (Fault.total_runs r);
  (* The same seed over the toolchain reproduces the identical report. *)
  let r' = T.fault_campaign ~seed:3 ~runs:2 a in
  Alcotest.(check bool) "reproducible" true (r.Fault.rp_faults = r'.Fault.rp_faults)

(* ---- checkpointed injection against the from-zero reference -------- *)

module Enc = Epic.Encoding

(* How campaigns injected before they started from golden checkpoints:
   every injection simulates from cycle 0 in the instrumented loop, and a
   tamper hook fires the flip at the first iteration top whose cycle is
   >= [f_cycle]; an instruction flip rewrites the word in a private copy
   of the image, and the next top restores it.  The reference the
   checkpointed engine must agree with on every fault. *)
let ref_inject ?pre cfg ~(image : A.image) ~mem ~entry ~fuel ~golden_ret
    ~golden_mem (fault : Fault.fault) =
  let image = { image with A.im_insts = Array.copy image.A.im_insts } in
  let mem = Bytes.copy mem in
  let table = lazy (Enc.make_table cfg) in
  let fired = ref false in
  let transient = ref None in
  let tamper (m : Sim.machine) =
    (match !transient with
     | Some (pos, orig) ->
       m.Sim.m_insts.(pos) <- orig;
       transient := None
     | None -> ());
    if (not !fired) && m.Sim.m_cycle >= fault.Fault.f_cycle then begin
      fired := true;
      let i = fault.Fault.f_index and bit = fault.Fault.f_bit in
      match fault.Fault.f_target with
      | Fault.F_gpr -> m.Sim.m_gprs.(i) <- m.Sim.m_gprs.(i) lxor (1 lsl bit)
      | Fault.F_pred -> m.Sim.m_preds.(i) <- not m.Sim.m_preds.(i)
      | Fault.F_btr -> m.Sim.m_btrs.(i) <- m.Sim.m_btrs.(i) lxor (1 lsl bit)
      | Fault.F_mem ->
        let b = Char.code (Bytes.get m.Sim.m_mem i) in
        Bytes.set m.Sim.m_mem i (Char.chr (b lxor (1 lsl (bit land 7))))
      | Fault.F_inst ->
        let t = Lazy.force table in
        let pos = (m.Sim.m_pc * m.Sim.m_issue_width) + (i mod m.Sim.m_issue_width) in
        let word = Enc.encode t cfg m.Sim.m_insts.(pos) in
        let word = Int64.logxor word (Int64.shift_left 1L bit) in
        transient := Some (pos, m.Sim.m_insts.(pos));
        m.Sim.m_insts.(pos) <- Enc.decode t cfg word
    end
  in
  let r = Sim.run ~fuel ~tamper ?pre cfg ~image ~mem ~entry () in
  match r.Sim.trap with
  | Some t when t.Sim.tr_cause = Sim.T_fuel -> Fault.O_timeout
  | Some t -> Fault.O_trap t.Sim.tr_cause
  | None ->
    if r.Sim.ret = golden_ret && Bytes.equal r.Sim.mem golden_mem then Fault.O_masked
    else Fault.O_sdc

(* The corpus at [--small] sizes under three machines: the default, a
   one-ALU three-stage pipeline, and issue width 2. *)
let grid_configs =
  [ Config.default;
    Config.validate_exn { Config.default with Config.n_alus = 1; pipeline_stages = 3 };
    Config.validate_exn { Config.default with Config.issue_width = 2 } ]

let grid_arts =
  lazy
    (let cache = T.Compile_cache.create () in
     List.concat_map
       (fun (name, source) ->
         List.map
           (fun c -> (name, T.compile_epic ~cache c ~source ()))
           grid_configs)
       (Test_analyses.corpus ()))

let grid_campaign ?(runs = 4) ~seed ~fuel_factor ~jobs (a : T.epic_artifacts) =
  let image = a.T.ea_image in
  let entry = Option.value ~default:0 (List.assoc_opt "_start" image.A.im_symbols) in
  let mem = Epic.Memmap.init_memory a.T.ea_layout a.T.ea_mir in
  ( Fault.campaign ~seed ~runs ~fuel_factor ~jobs ~pre:a.T.ea_pre a.T.ea_config
      ~image ~mem ~entry (),
    mem,
    entry )

let json rp = Epic.Profile.Json.to_string (Fault.report_to_json ~faults:true rp)

(* Byte-identity pin: the MD5 of the grid's reports, recorded before
   injections started from golden checkpoints, which had to leave every
   outcome unchanged.  A change that alters what an outcome means on
   purpose (say, a new definition of the program's output) re-records
   it: run [dune exec test/test_main.exe -- test fault], take the digest
   the failure prints, and say in CHANGES.md why the reports changed. *)
let pinned_reports = "8d55d4107b69b70001fea090b76968a7"

let test_report_pin () =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun (name, a) ->
      List.iter
        (fun (seed, fuel_factor) ->
          let rp, _, _ = grid_campaign ~runs:8 ~seed ~fuel_factor ~jobs:2 a in
          Buffer.add_string buf name;
          Buffer.add_string buf (json rp))
        [ (1, 4); (5, 1) ])
    (Lazy.force grid_arts);
  Alcotest.(check string) "report digest" pinned_reports
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let outcome_class = function
  | Fault.O_trap c -> Sim.string_of_trap_cause c
  | o -> Fault.string_of_outcome o

(* Over the grid at two (seed, watchdog) points, 1x and 4x the golden
   run: the campaign at 1 and 2 domains reports exactly what a campaign
   of reference injections reports, and [Fault.inject] agrees with the
   reference on every fault.  Seed 5 at 1x reaches every outcome class
   (seed 2 at 4x adds bad-pc traps); the test checks that each class
   still appears.  The grid points run on two domains. *)
let test_reference_equivalence () =
  let points =
    List.concat_map
      (fun art -> List.map (fun p -> (art, p)) [ (5, 1); (2, 4) ])
      (Lazy.force grid_arts)
  in
  let run_point ((name, (a : T.epic_artifacts)), (seed, fuel_factor)) =
    let cfg = a.T.ea_config and image = a.T.ea_image and pre = a.T.ea_pre in
    let label =
      Printf.sprintf "%s issue %d alus %d, seed %d, fuel x%d" name
        cfg.Config.issue_width cfg.Config.n_alus seed fuel_factor
    in
    let rp, mem, entry = grid_campaign ~seed ~fuel_factor ~jobs:1 a in
    let rp2, _, _ = grid_campaign ~seed ~fuel_factor ~jobs:2 a in
    let g = Fault.golden ~pre cfg ~image ~mem ~entry in
    let golden_ret = g.Sim.ret and golden_mem = g.Sim.mem in
    let fuel = rp.Fault.rp_fuel in
    let replay f =
      ( ref_inject ~pre cfg ~image ~mem ~entry ~fuel ~golden_ret ~golden_mem f,
        Fault.inject ~pre cfg ~image ~mem ~entry ~fuel ~golden_ret ~golden_mem f )
    in
    (label, g.Sim.stats.Sim.cycles, fuel_factor, rp, rp2,
     List.map (fun (f, _) -> replay f) rp.Fault.rp_faults)
  in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (label, golden_cycles, fuel_factor, rp, rp2, replays) ->
      Alcotest.(check int) (label ^ ": fuel")
        ((fuel_factor * golden_cycles) + 64) rp.Fault.rp_fuel;
      let faults =
        List.map2
          (fun (f, o) (r, i) ->
            if i <> r || o <> r then
              Alcotest.failf
                "%s: %a is %s in the reference, %s by inject, %s in the campaign"
                label Fault.pp_fault f (Fault.string_of_outcome r)
                (Fault.string_of_outcome i) (Fault.string_of_outcome o);
            Hashtbl.replace seen (outcome_class r) ();
            (f, r))
          rp.Fault.rp_faults replays
      in
      let rows =
        List.map
          (fun row ->
            let n o =
              List.length
                (List.filter
                   (fun ((f : Fault.fault), o') ->
                     f.Fault.f_target = row.Fault.r_target && o o')
                   faults)
            in
            { row with
              Fault.r_masked = n (( = ) Fault.O_masked);
              r_sdc = n (( = ) Fault.O_sdc);
              r_trap = n (function Fault.O_trap _ -> true | _ -> false);
              r_timeout = n (( = ) Fault.O_timeout) })
          rp.Fault.rp_rows
      in
      let reference = json { rp with Fault.rp_rows = rows; rp_faults = faults } in
      Alcotest.(check string) (label ^ ": 1 domain") reference (json rp);
      Alcotest.(check string) (label ^ ": 2 domains") reference (json rp2);
      Alcotest.(check bool) (label ^ ": effort") true
        (rp.Fault.rp_effort = rp2.Fault.rp_effort))
    (Epic.Exec.Pool.map ~jobs:2 run_point points);
  List.iter
    (fun c ->
      Alcotest.(check bool) ("some fault is " ^ c) true (Hashtbl.mem seen c))
    [ "masked"; "sdc"; "timeout"; "bad-pc"; "mem-bounds"; "illegal-op" ]

let suite =
  [
    Alcotest.test_case "trap: bad pc" `Quick test_trap_bad_pc;
    Alcotest.test_case "trap: memory bounds" `Quick test_trap_mem_bounds;
    Alcotest.test_case "trap: illegal operation" `Quick test_trap_illegal_op;
    Alcotest.test_case "trap: fuel watchdog" `Quick test_trap_fuel;
    Alcotest.test_case "clean run has no trap" `Quick test_clean_run_no_trap;
    Alcotest.test_case "run_exn compatibility wrapper" `Quick test_run_exn_wrapper;
    Alcotest.test_case "no-op tamper is invisible" `Quick test_tamper_noop_identical;
    Alcotest.test_case "classify: dead gpr masked" `Quick test_classify_masked_dead_gpr;
    Alcotest.test_case "classify: live memory sdc" `Quick test_classify_sdc_live_mem;
    Alcotest.test_case "classify: untouched memory sdc" `Quick test_classify_sdc_untouched_mem;
    Alcotest.test_case "classify: overwritten memory masked" `Quick
      test_classify_masked_overwritten_mem;
    Alcotest.test_case "classify: address gpr traps" `Quick test_classify_trap_address_gpr;
    Alcotest.test_case "classify: unused inst field masked" `Quick
      test_classify_masked_inst_unused_field;
    Alcotest.test_case "classify: loop counter timeout" `Quick
      test_classify_timeout_loop_counter;
    Alcotest.test_case "campaign determinism" `Quick test_campaign_deterministic;
    Alcotest.test_case "campaign accounting" `Quick test_campaign_accounting;
    Alcotest.test_case "campaign argument validation" `Quick
      test_campaign_rejects_bad_arguments;
    Alcotest.test_case "report json" `Quick test_report_json;
    Alcotest.test_case "toolchain campaign" `Quick test_toolchain_campaign;
    Alcotest.test_case "campaign report byte-identity pin" `Quick test_report_pin;
    Alcotest.test_case "checkpointed injection = from-zero reference" `Quick
      test_reference_equivalence;
  ]

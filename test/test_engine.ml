(* Two-tier engine tests: the fast loop and the instrumented loop must
   be observationally identical (stats, return value, final memory and
   registers, trap records) on every workload and on trapping programs;
   predecode must agree with the per-instruction ISA metadata it
   flattens; campaigns must not depend on who built the predecode; and a
   predecode for the wrong image or config must be rejected. *)

module Isa = Epic.Isa
module Config = Epic.Config
module Sim = Epic.Sim
module Pre = Epic.Sim.Predecode
module A = Epic.Asm.Aunit
module Text = Epic.Asm.Text
module Memmap = Epic.Memmap
module S = Epic.Workloads.Sources
module T = Epic.Toolchain
module Fault = Epic.Fault
module D = Epic.Difftest

let cfg = Config.default

let image_of c text = A.resolve c (Text.of_string text)

let entry_of (image : A.image) =
  match List.assoc_opt "_start" image.A.im_symbols with
  | Some e -> e
  | None -> 0

(* Full observational equality of two runs. *)
let check_same_result label (a : Sim.result) (b : Sim.result) =
  Alcotest.(check int) (label ^ ": ret") a.Sim.ret b.Sim.ret;
  Alcotest.(check bool) (label ^ ": stats") true (a.Sim.stats = b.Sim.stats);
  Alcotest.(check bool) (label ^ ": mem") true (Bytes.equal a.Sim.mem b.Sim.mem);
  Alcotest.(check bool) (label ^ ": gprs") true (a.Sim.gprs = b.Sim.gprs);
  Alcotest.(check bool) (label ^ ": trap") true (a.Sim.trap = b.Sim.trap)

(* ---- fast path == instrumented path on the four workloads ---------- *)

let cache = T.Compile_cache.create ()

let benchmarks () =
  [ S.sha_benchmark ~bytes:64 ();
    S.aes_benchmark ~iters:1 ();
    S.dct_benchmark ~width:8 ~height:8 ();
    S.dijkstra_benchmark ~nodes:6 () ]

let test_workload_equivalence () =
  List.iter
    (fun (bm : S.benchmark) ->
      List.iter
        (fun alus ->
          let label = Printf.sprintf "%s/%d-alu" bm.S.bm_name alus in
          let c = Config.with_alus alus in
          let a = T.compile_epic ~cache c ~source:bm.S.bm_source () in
          let image = a.T.ea_image in
          let entry = entry_of image in
          let mem0 = Memmap.init_memory a.T.ea_layout a.T.ea_mir in
          let go ?sink ?pre () =
            Sim.run ?sink ?pre c ~image ~mem:(Bytes.copy mem0) ~entry ()
          in
          let fast = go () in
          check_same_result (label ^ " instrumented")
            fast (go ~sink:ignore ());
          check_same_result (label ^ " fast+pre") fast (go ~pre:a.T.ea_pre ());
          check_same_result (label ^ " instrumented+pre")
            fast (go ~sink:ignore ~pre:a.T.ea_pre ()))
        [ 1; 2; 3; 4 ])
    (benchmarks ())

(* ---- trap equivalence on handwritten programs ---------------------- *)

(* Run under both engines (optionally with an explicit predecode) and
   demand identical trap records — cause, pc, cycle and message. *)
let check_trap_equiv ?(cfg = cfg) ?fuel label image ~mem_bytes =
  let go ?sink () =
    Sim.run ?fuel ?sink ~pre:(Pre.of_image cfg image) cfg ~image
      ~mem:(Bytes.make mem_bytes '\000') ~entry:(entry_of image) ()
  in
  let fast = go () in
  check_same_result label fast (go ~sink:ignore ());
  fast

let test_trap_equivalence () =
  let r =
    check_trap_equiv "bad pc"
      (image_of cfg "_start:\n{ PBRR b0, #999 }\n{ BRU #0 }\n") ~mem_bytes:64
  in
  (match r.Sim.trap with
   | Some t -> Alcotest.(check int) "bad pc target" 999 t.Sim.tr_pc
   | None -> Alcotest.fail "expected a bad-pc trap");
  let r =
    check_trap_equiv "mem bounds"
      (image_of cfg "_start:\n{ MOV r4, #1000 }\n{ LDW r3, r4, #0 }\n{ HALT }\n")
      ~mem_bytes:64
  in
  (match r.Sim.trap with
   | Some t ->
     Alcotest.(check bool) "mem-bounds cause" true
       (t.Sim.tr_cause = Sim.T_mem_bounds)
   | None -> Alcotest.fail "expected a mem-bounds trap");
  let r =
    check_trap_equiv "fuel" ~fuel:50_000
      (image_of cfg "_start:\n{ PBRR b0, #0 }\nloop:\n{ BRU #0 }\n")
      ~mem_bytes:64
  in
  (match r.Sim.trap with
   | Some t ->
     Alcotest.(check bool) "fuel cause" true (t.Sim.tr_cause = Sim.T_fuel)
   | None -> Alcotest.fail "expected a fuel trap")

let test_trap_equivalence_fuel () =
  (* Tight fuel: both engines must stop on the same cycle. *)
  let image = image_of cfg "_start:\n{ PBRR b0, #0 }\nloop:\n{ BRU #0 }\n" in
  let go ?sink () =
    Sim.run ~fuel:100 ?sink cfg ~image ~mem:(Bytes.make 64 '\000') ()
  in
  check_same_result "fuel=100" (go ()) (go ~sink:ignore ())

let test_trap_equivalence_illegal () =
  (* Assemble DIV under the full configuration, run on a datapath that
     omits the divider: the predecode records the failure, both engines
     raise it at fetch time with the same message. *)
  let no_div = Config.validate_exn { cfg with Config.alu_omit = [ Isa.DIV ] } in
  let image = image_of cfg "_start:\n{ DIV r3, r4, r5 }\n{ HALT }\n" in
  let r = check_trap_equiv ~cfg:no_div "illegal op" image ~mem_bytes:64 in
  (match r.Sim.trap with
   | Some t ->
     Alcotest.(check bool) "illegal-op cause" true
       (t.Sim.tr_cause = Sim.T_illegal_op)
   | None -> Alcotest.fail "expected an illegal-op trap")

let test_unreached_illegal_bundle () =
  (* The legality check moved to predecode time, but the trap taxonomy
     is positional: an illegal bundle the program never reaches must not
     trap — in either engine. *)
  let no_div = Config.validate_exn { cfg with Config.alu_omit = [ Isa.DIV ] } in
  let image =
    image_of cfg "_start:\n{ MOV r3, #7 }\n{ HALT }\n{ DIV r5, r4, r4 }\n"
  in
  let pre = Pre.of_image no_div image in
  Alcotest.(check bool) "predecode recorded the failure" true
    (Pre.fetch_trap pre 2 <> None);
  Alcotest.(check bool) "reachable bundles are clean" true
    (Pre.fetch_trap pre 0 = None && Pre.fetch_trap pre 1 = None);
  let go ?sink () =
    Sim.run ?sink ~pre no_div ~image ~mem:(Bytes.make 64 '\000') ()
  in
  let fast = go () in
  check_same_result "unreached illegal" fast (go ~sink:ignore ());
  Alcotest.(check int) "clean return" 7 fast.Sim.ret;
  Alcotest.(check bool) "no trap" true (fast.Sim.trap = None)

(* ---- predecode sharing across layers ------------------------------- *)

let test_campaign_pre_invariance () =
  (* A campaign given an explicit predecode must produce the exact
     report of one that builds its own (the tamper/re-decode contract:
     injected instruction flips are still seen through the predecode). *)
  let bm = S.sha_benchmark ~bytes:64 () in
  let a = T.compile_epic ~cache (Config.with_alus 2) ~source:bm.S.bm_source () in
  let image = a.T.ea_image in
  let mem = Memmap.init_memory a.T.ea_layout a.T.ea_mir in
  let entry = entry_of image in
  let r1 =
    Fault.campaign ~seed:3 ~runs:4 a.T.ea_config ~image ~mem ~entry ()
  in
  let r2 =
    Fault.campaign ~seed:3 ~runs:4 ~pre:a.T.ea_pre a.T.ea_config ~image ~mem
      ~entry ()
  in
  Alcotest.(check bool) "reports identical" true (r1 = r2)

let test_pre_mismatch_rejected () =
  let im1 = image_of cfg "_start:\n{ MOV r3, #1 }\n{ HALT }\n" in
  let im2 = image_of cfg "_start:\n{ MOV r3, #2 }\n{ HALT }\n" in
  let expect_reject label f =
    match f () with
    | (_ : Sim.result) -> Alcotest.failf "%s: expected Sim_error" label
    | exception Sim.Sim_error d ->
      Alcotest.(check string) (label ^ ": code") "sim/predecode-mismatch"
        d.Epic.Diag.code
  in
  expect_reject "wrong image" (fun () ->
      Sim.run ~pre:(Pre.of_image cfg im2) cfg ~image:im1
        ~mem:(Bytes.make 64 '\000') ());
  let other = Config.validate_exn { cfg with Config.alu_omit = [ Isa.DIV ] } in
  expect_reject "wrong config" (fun () ->
      Sim.run ~pre:(Pre.of_image cfg im1) other ~image:im1
        ~mem:(Bytes.make 64 '\000') ());
  (* The matching predecode is accepted. *)
  let r =
    Sim.run ~pre:(Pre.of_image cfg im1) cfg ~image:im1
      ~mem:(Bytes.make 64 '\000') ()
  in
  Alcotest.(check int) "accepted" 1 r.Sim.ret

let test_digest_keys () =
  let im1 = image_of cfg "_start:\n{ MOV r3, #1 }\n{ HALT }\n" in
  let im1' = image_of cfg "_start:\n{ MOV r3, #1 }\n{ HALT }\n" in
  let im2 = image_of cfg "_start:\n{ MOV r3, #2 }\n{ HALT }\n" in
  Alcotest.(check string) "equal streams, equal digests"
    (Pre.image_digest im1) (Pre.image_digest im1');
  Alcotest.(check bool) "distinct streams, distinct digests" true
    (Pre.image_digest im1 <> Pre.image_digest im2)

(* ---- qcheck: predecode round-trips the ISA metadata ---------------- *)

(* Well-formed instructions under the default configuration (the same
   shape the encoding round-trip uses). *)
let gen_inst =
  let open QCheck.Gen in
  let reg = int_bound (cfg.Config.n_gprs - 1) in
  let src =
    oneof
      [ map (fun r -> Isa.Sreg r) reg;
        map (fun v -> Isa.Simm (v - 16384)) (int_bound 32767) ]
  in
  let guard = int_bound (cfg.Config.n_preds - 1) in
  let alu_ops =
    [| Isa.ADD; Isa.SUB; Isa.MPY; Isa.DIV; Isa.REM; Isa.MIN; Isa.MAX;
       Isa.AND; Isa.OR; Isa.XOR; Isa.ANDCM; Isa.NAND; Isa.NOR;
       Isa.SHL; Isa.SHR; Isa.SHRA; Isa.MOV; Isa.ABS |]
  in
  let conds =
    [| Isa.C_eq; Isa.C_ne; Isa.C_lt; Isa.C_le; Isa.C_gt; Isa.C_ge;
       Isa.C_ltu; Isa.C_leu; Isa.C_gtu; Isa.C_geu |]
  in
  let mems = [| Isa.M_byte; Isa.M_half; Isa.M_word |] in
  let mk op d1 d2 s1 s2 g =
    { Isa.op; dst1 = d1; dst2 = d2; src1 = s1; src2 = s2; guard = g }
  in
  frequency
    [ (1, return (mk Isa.NOP 0 0 (Isa.Simm 0) (Isa.Simm 0) 0));
      (6,
       map2
         (fun (op, d1) ((s1, s2), g) -> mk op d1 0 s1 s2 g)
         (pair
            (map (fun k -> alu_ops.(k)) (int_bound (Array.length alu_ops - 1)))
            reg)
         (pair (pair src src) guard));
      (2,
       map2
         (fun (c, (d1, d2)) ((s1, s2), g) -> mk (Isa.CMPP c) d1 d2 s1 s2 g)
         (pair
            (map (fun k -> conds.(k)) (int_bound 9))
            (pair
               (int_bound (cfg.Config.n_preds - 1))
               (int_bound (cfg.Config.n_preds - 1))))
         (pair (pair src src) guard));
      (2,
       map2
         (fun (m, d1) ((s1, s2), g) -> mk (Isa.LD m) d1 0 s1 s2 g)
         (pair (map (fun k -> mems.(k)) (int_bound 2)) reg)
         (pair (pair src src) guard));
      (1,
       map2
         (fun (m, r1) (r2, g) -> mk (Isa.ST m) 0 0 (Isa.Sreg r1) (Isa.Sreg r2) g)
         (pair (map (fun k -> mems.(k)) (int_bound 2)) reg)
         (pair reg guard));
      (1,
       map2
         (fun (b, s1) g -> mk Isa.PBRR b 0 s1 (Isa.Simm 0) g)
         (pair (int_bound (cfg.Config.n_btrs - 1)) src)
         guard);
      (1,
       map2
         (fun (b, p) g -> mk Isa.BRCT 0 0 (Isa.Simm b) (Isa.Simm p) g)
         (pair
            (int_bound (cfg.Config.n_btrs - 1))
            (int_bound (cfg.Config.n_preds - 1)))
         guard) ]

let arb_inst = QCheck.make ~print:(Format.asprintf "%a" Isa.pp_inst) gen_inst

(* Multiset of read indices per file, from the ISA metadata. *)
let reads_of_file file i =
  List.sort compare
    (List.filter_map
       (fun (f, idx) -> if f = file then Some idx else None)
       (Isa.reads i))

let prop_predecode_roundtrip =
  QCheck.Test.make ~name:"predecode round-trips ISA metadata" ~count:500
    arb_inst (fun i ->
      let image = { A.im_insts = [| i |]; im_symbols = []; im_issue_width = 1 } in
      let pre = Pre.of_image cfg image in
      let rg, rp, rb = Pre.bundle_reads pre 0 in
      Pre.fetch_trap pre 0 = None
      && List.sort compare rg = reads_of_file Isa.R_gpr i
      && List.sort compare rp = reads_of_file Isa.R_pred i
      && List.sort compare rb = reads_of_file Isa.R_btr i
      && Pre.gpr_write_ports pre 0
         = List.length
             (List.filter (fun (f, _) -> f = Isa.R_gpr) (Isa.writes i))
      && Pre.slot_latency pre ~bundle:0 ~slot:0 = Config.latency cfg i.Isa.op
      && Pre.n_bundles pre = 1
      && Pre.issue_width pre = 1)

(* ---- resumable runs: pausing changes nothing ----------------------- *)

module Prng = Epic.Workloads.Prng

(* One [run], against the same run as [start], single steps, [advance]
   to seeded pause points (in random order, so some are already behind)
   and [advance] to the end.  Every step runs exactly one iteration (one
   bundle issues); every pause stops at an iteration top at or past its
   cycle; and at some pauses the run moves to a fresh state by [blit]. *)
let check_split ?fuel ~seed label cfg ~image ~mem ~entry =
  let whole = Sim.run ?fuel cfg ~image ~mem:(Bytes.copy mem) ~entry () in
  let pre = Pre.of_image cfg image in
  let state mem = Sim.start ~pre cfg ~image ~mem ~entry () in
  let st = ref (state (Bytes.copy mem)) in
  for _ = 1 to 40 do
    let s = !st in
    let bundles = s.Sim.s_stats.Sim.bundles in
    Sim.advance ?fuel ~until:(s.Sim.s_cycle + 1) s;
    if not (Sim.finished s) then
      Alcotest.(check int) (label ^ ": one step, one bundle") (bundles + 1)
        s.Sim.s_stats.Sim.bundles
  done;
  let rng = Prng.create ~seed () in
  let span = whole.Sim.stats.Sim.cycles + 2 in
  for _ = 1 to 12 do
    let until = Prng.next rng mod span in
    Sim.advance ?fuel ~until !st;
    if not (Sim.finished !st) then
      Alcotest.(check bool) (label ^ ": paused at or past the point") true
        ((!st).Sim.s_cycle >= until);
    if Prng.next rng mod 3 = 0 then begin
      let copy = state (Bytes.create (Bytes.length mem)) in
      Sim.blit ~src:!st ~dst:copy;
      st := copy
    end
  done;
  Sim.advance ?fuel ~until:max_int !st;
  Alcotest.(check bool) (label ^ ": finished") true (Sim.finished !st);
  check_same_result (label ^ " split") whole (Sim.result !st)

let test_split_workloads () =
  List.iter
    (fun (bm : S.benchmark) ->
      List.iter
        (fun alus ->
          let c = Config.with_alus alus in
          let a = T.compile_epic ~cache c ~source:bm.S.bm_source () in
          check_split ~seed:alus
            (Printf.sprintf "%s/%d-alu" bm.S.bm_name alus)
            c ~image:a.T.ea_image
            ~mem:(Memmap.init_memory a.T.ea_layout a.T.ea_mir)
            ~entry:(entry_of a.T.ea_image))
        [ 1; 4 ])
    (benchmarks ())

let test_split_traps () =
  let no_div = Config.validate_exn { cfg with Config.alu_omit = [ Isa.DIV ] } in
  List.iteri
    (fun k (label, c, fuel, text) ->
      let image = image_of cfg text in
      check_split ?fuel ~seed:(k + 1) label c ~image ~mem:(Bytes.make 64 '\000')
        ~entry:(entry_of image))
    [ ("bad pc", cfg, None, "_start:\n{ PBRR b0, #999 }\n{ BRU #0 }\n");
      ("mem bounds", cfg, None,
       "_start:\n{ MOV r4, #1000 }\n{ LDW r3, r4, #0 }\n{ HALT }\n");
      ("fuel", cfg, Some 5_000, "_start:\n{ PBRR b0, #0 }\nloop:\n{ BRU #0 }\n");
      ("tight fuel", cfg, Some 100, "_start:\n{ PBRR b0, #0 }\nloop:\n{ BRU #0 }\n");
      ("illegal op", no_div, None, "_start:\n{ DIV r3, r4, r5 }\n{ HALT }\n");
      ("unreached illegal", no_div, None,
       "_start:\n{ MOV r3, #7 }\n{ HALT }\n{ DIV r5, r4, r4 }\n") ]

(* [same_future] on forked states of one program.  Only the first run
   executes the guarded MPY (the fork's guard is flipped, and the CMPP in
   the same bundle rewrites it), so from bundle 2 on both hold r5 = 0 and
   p1 = true, but r5 becomes readable at cycle 4 in the first run and was
   readable since cycle 1 in the fork: not the same future until both
   ready times are in the past, at bundle 5.  r7 is read only as a
   second operand. *)
let test_same_future () =
  let image =
    image_of cfg
      "_start:\n{ MOV r5, #0 ; CMPP.EQ p1, p2, r0, #0 }\n\
       { MPY r5, r5, #3 (p1) ; CMPP.EQ p1, p2, r0, #0 }\n\
       { MOV r6, #1 }\n{ MOV r6, #2 }\n{ MOV r6, #3 }\n\
       { ADD r3, r5, r7 }\n{ HALT }\n"
  in
  let pre = Pre.of_image cfg image in
  let state () = Sim.start ~pre cfg ~image ~mem:(Bytes.make 64 '\000') () in
  let a = state () and b = state () in
  let same label want = Alcotest.(check bool) label want (Sim.same_future a b) in
  Sim.advance ~until:1 a;
  Sim.blit ~src:a ~dst:b;
  same "a fork" true;
  b.Sim.s_gprs.(40) <- 1;
  same "a register no bundle reads" true;
  b.Sim.s_gprs.(7) <- 1;
  same "a second operand" false;
  b.Sim.s_gprs.(7) <- 0;
  Bytes.set b.Sim.s_mem 7 '\001';
  same "memory" false;
  Bytes.set b.Sim.s_mem 7 '\000';
  b.Sim.s_preds.(1) <- false;
  same "the MPY's guard" false;
  List.iter
    (fun (cycle, want) ->
      Sim.advance ~until:cycle a;
      Sim.advance ~until:cycle b;
      Alcotest.(check (pair int int)) "in step" (a.Sim.s_pc, a.Sim.s_cycle)
        (b.Sim.s_pc, b.Sim.s_cycle);
      same (Printf.sprintf "at cycle %d" cycle) want)
    [ (2, false); (3, false); (4, false); (5, true) ];
  Sim.advance ~until:max_int a;
  Sim.advance ~until:max_int b;
  Alcotest.(check int) "same return" (Sim.result a).Sim.ret (Sim.result b).Sim.ret;
  Alcotest.(check int) "same cycles" a.Sim.s_cycle b.Sim.s_cycle;
  same "halted" false

(* The differential fuzzer's generated programs: assembly cases in their
   sampled envelopes, and compiled MIR programs over its config grid. *)
let test_split_difftest () =
  for n = 0 to 39 do
    let rng = D.Rng.create (D.Rng.case_seed ~seed:29 ~index:n) in
    let c, u = D.gen_asm_case rng in
    let image, _ = A.assemble c u in
    check_split ~fuel:200_000 ~seed:(n + 1) (Printf.sprintf "asm case %d" n) c
      ~image ~mem:(Bytes.make D.asm_mem_bytes '\000') ~entry:0
  done;
  for n = 0 to 5 do
    let rng = D.Rng.create (D.Rng.case_seed ~seed:23 ~index:n) in
    let p = D.gen_mir_program rng in
    List.iter
      (fun c ->
        let image, layout, entry, compiled, _ = D.compile_mir c ~scheduling:true p in
        check_split ~fuel:2_000_000 ~seed:(n + 1)
          (Printf.sprintf "mir case %d, %s" n (D.label_of_config c ~scheduling:true))
          c ~image ~mem:(Memmap.init_memory layout compiled) ~entry)
      (D.gen_mir_grid (D.Rng.create (n + 0x5bd1)))
  done

(* ---- seeded fuzz corpus against the refactored engine -------------- *)

let test_fuzz_corpus () =
  (* A fresh seed (distinct from the difftest suite's) so the corpus the
     multi-way oracle explores differs from the committed regressions. *)
  let r = D.fuzz ~jobs:1 ~seed:42 ~cases:48 () in
  Alcotest.(check int) "cases" 48 r.D.r_cases;
  Alcotest.(check int) "no findings" 0 (List.length r.D.r_findings)

let suite =
  [ Alcotest.test_case "fast == instrumented on all workloads x 1-4 ALUs"
      `Slow test_workload_equivalence;
    Alcotest.test_case "trap equivalence (bad pc, mem bounds, fuel)" `Quick
      test_trap_equivalence;
    Alcotest.test_case "trap equivalence under tight fuel" `Quick
      test_trap_equivalence_fuel;
    Alcotest.test_case "trap equivalence for illegal ops" `Quick
      test_trap_equivalence_illegal;
    Alcotest.test_case "unreached illegal bundle never traps" `Quick
      test_unreached_illegal_bundle;
    Alcotest.test_case "campaign invariant under explicit predecode" `Quick
      test_campaign_pre_invariance;
    Alcotest.test_case "mismatched predecode rejected" `Quick
      test_pre_mismatch_rejected;
    Alcotest.test_case "image digests key the cache" `Quick test_digest_keys;
    QCheck_alcotest.to_alcotest prop_predecode_roundtrip;
    Alcotest.test_case "seeded fuzz corpus is clean" `Slow test_fuzz_corpus;
    Alcotest.test_case "split runs = one run on all workloads" `Quick
      test_split_workloads;
    Alcotest.test_case "split runs = one run on trapping programs" `Quick
      test_split_traps;
    Alcotest.test_case "split runs = one run on the difftest corpus" `Quick
      test_split_difftest;
    Alcotest.test_case "same_future: dead registers, ready times" `Quick
      test_same_future ]

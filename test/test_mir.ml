(* Unit tests for the MIR layer: IR metadata and validation, liveness
   analysis, the memory map, the reference interpreter's edge cases, and
   the register allocator. *)

module Ir = Epic.Ir
module Liveness = Epic.Liveness
module Memmap = Epic.Memmap
module Interp = Epic.Interp
module Regalloc = Epic.Regalloc

let m32 v = v land 0xFFFFFFFF

(* Hand-build: f(x) = loop { s += x; n-- } with a diamond. *)
let build_sum_func () =
  let b = Ir.Builder.create ~name:"f" ~params:[ 0; 1 ] in
  let s = Ir.Builder.fresh_vreg b in
  let l0 = Ir.Builder.fresh_label b in
  let head = Ir.Builder.fresh_label b in
  let body = Ir.Builder.fresh_label b in
  let exit_ = Ir.Builder.fresh_label b in
  Ir.Builder.start_block b l0;
  Ir.Builder.emit b (Ir.Mov (s, Ir.Imm 0));
  Ir.Builder.seal b (Ir.Jmp head);
  Ir.Builder.start_block b head;
  Ir.Builder.seal b (Ir.Br (Ir.Rgt, Ir.Reg 1, Ir.Imm 0, body, exit_));
  Ir.Builder.start_block b body;
  Ir.Builder.emit b (Ir.Bin (Ir.Add, s, Ir.Reg s, Ir.Reg 0));
  Ir.Builder.emit b (Ir.Bin (Ir.Sub, 1, Ir.Reg 1, Ir.Imm 1));
  Ir.Builder.seal b (Ir.Jmp head);
  Ir.Builder.start_block b exit_;
  Ir.Builder.seal b (Ir.Ret (Some (Ir.Reg s)));
  Ir.Builder.func b

let test_builder_and_validate () =
  let f = build_sum_func () in
  Alcotest.(check int) "blocks" 4 (List.length f.Ir.f_blocks);
  (match Ir.validate_func f with
   | Ok () -> ()
   | Error m -> Alcotest.failf "validate: %s" m);
  (* Run it through the interpreter. *)
  let p = { Ir.p_globals = []; p_funcs = [ f ] } in
  Alcotest.(check int) "5 * 7" 35 (Interp.run ~args:[ 5; 7 ] p ~entry:"f").Interp.ret

let test_validate_catches_bad_label () =
  let f = build_sum_func () in
  (List.hd f.Ir.f_blocks).Ir.b_term <- Ir.Jmp 999;
  (match Ir.validate_func f with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "missing label not caught")

let test_validate_catches_bad_vreg () =
  let f = build_sum_func () in
  (List.hd f.Ir.f_blocks).Ir.b_insts <- [ Ir.no_guard (Ir.Mov (999, Ir.Imm 0)) ];
  (match Ir.validate_func f with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "vreg out of range not caught")

let test_defs_uses () =
  let i = Ir.no_guard (Ir.Bin (Ir.Add, 5, Ir.Reg 3, Ir.Imm 7)) in
  Alcotest.(check (list (pair bool int))) "defs" [ (true, 5) ]
    (List.map (fun (c, r) -> (c = Ir.Cgpr, r)) (Ir.defs_of_inst i));
  Alcotest.(check (list (pair bool int))) "uses" [ (true, 3) ]
    (List.map (fun (c, r) -> (c = Ir.Cgpr, r)) (Ir.uses_of_inst i));
  (* Guarded instructions read their predicate and partially define. *)
  let g = { Ir.kind = Ir.Mov (5, Ir.Imm 1); guard = Some { Ir.g_reg = 2; g_pos = false } } in
  Alcotest.(check bool) "guard is a use" true
    (List.mem (Ir.Cpred, 2) (Ir.uses_of_inst g));
  Alcotest.(check bool) "partial def" true (Ir.partial_defs g <> [])

let test_liveness_loop () =
  let f = build_sum_func () in
  let live = Liveness.analyse f in
  (* At the loop head, the accumulator, the counter and x are all live. *)
  let head_in = Liveness.live_in live 1 in
  Alcotest.(check bool) "x live" true (Liveness.mem live (Ir.Cgpr, 0) head_in);
  Alcotest.(check bool) "n live" true (Liveness.mem live (Ir.Cgpr, 1) head_in);
  Alcotest.(check bool) "s live" true (Liveness.mem live (Ir.Cgpr, 2) head_in);
  (* After the exit block nothing is live. *)
  Alcotest.(check int) "exit out empty" 0
    (List.length (Liveness.elements live (Liveness.live_out live 3)))

let test_liveness_dead_def () =
  let b = Ir.Builder.create ~name:"g" ~params:[] in
  let l = Ir.Builder.fresh_label b in
  let d = Ir.Builder.fresh_vreg b in
  Ir.Builder.start_block b l;
  Ir.Builder.emit b (Ir.Mov (d, Ir.Imm 1));
  Ir.Builder.seal b (Ir.Ret (Some (Ir.Imm 0)));
  let f = Ir.Builder.func b in
  let live = Liveness.analyse f in
  Alcotest.(check int) "nothing live in" 0
    (List.length (Liveness.elements live (Liveness.live_in live l)))

let test_memmap_layout () =
  let p =
    { Ir.p_globals =
        [ { Ir.g_name = "a"; g_bytes = 10; g_init = [||] };
          { Ir.g_name = "b"; g_bytes = 4; g_init = [| 0xDEAD |] } ];
      p_funcs = [] }
  in
  let m = Memmap.layout p in
  let a = Memmap.addr_of m "a" and b = Memmap.addr_of m "b" in
  Alcotest.(check bool) "a below b" true (a < b);
  Alcotest.(check int) "word aligned" 0 (b mod 4);
  Alcotest.(check int) "aligned gap" (a + 12) b;
  let mem = Memmap.init_memory m p in
  Alcotest.(check int) "init applied" 0xDEAD (Memmap.read ~size:Ir.I32 ~ext:Ir.Zx mem b);
  Alcotest.check_raises "unknown symbol"
    (Invalid_argument "Memmap.addr_of: unknown global nope")
    (fun () -> ignore (Memmap.addr_of m "nope"))

let test_memmap_big_endian_bytes () =
  let m = Bytes.make 16 '\000' in
  Memmap.write ~size:Ir.I32 m 0 0x11223344;
  Alcotest.(check int) "byte 0 is MSB" 0x11 (Memmap.read ~size:Ir.I8 ~ext:Ir.Zx m 0);
  Alcotest.(check int) "byte 3 is LSB" 0x44 (Memmap.read ~size:Ir.I8 ~ext:Ir.Zx m 3);
  Alcotest.(check int) "halfword" 0x1122 (Memmap.read ~size:Ir.I16 ~ext:Ir.Zx m 0);
  (* Sign extension *)
  Memmap.write ~size:Ir.I8 m 8 0x80;
  Alcotest.(check int) "sx byte" (m32 (-128)) (Memmap.read ~size:Ir.I8 ~ext:Ir.Sx m 8);
  Memmap.write ~size:Ir.I16 m 10 0x8000;
  Alcotest.(check int) "sx half" (m32 (-32768)) (Memmap.read ~size:Ir.I16 ~ext:Ir.Sx m 10)

let compile = Epic.Cfront.compile

let expect_runtime_error src =
  match Interp.run (compile src) ~entry:"main" with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected a runtime error"

let test_interp_errors () =
  expect_runtime_error "int main() { return 1 / 0; }";
  expect_runtime_error "int main() { return 1 % 0; }";
  expect_runtime_error "int a[2]; int main() { return a[3000000]; }";
  (* Unbounded recursion exhausts the simulated stack, not OCaml's. *)
  expect_runtime_error
    "int f(int n) { int big[200]; return f(n + big[0]); }\n\
     int main() { return f(1); }";
  (* Fuel limit catches infinite loops. *)
  (match Interp.run ~fuel:10_000 (compile "int main() { while (1) { } return 0; }") ~entry:"main" with
   | exception Interp.Runtime_error _ -> ()
   | _ -> Alcotest.fail "expected out-of-fuel")

let test_interp_block_counts () =
  let p = compile "int main() { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }" in
  let r = Interp.run p ~entry:"main" in
  let total = Hashtbl.fold (fun _ c acc -> acc + c) r.Interp.block_counts 0 in
  (* Head runs 11x, body 10x, plus entry/exit. *)
  Alcotest.(check bool) "profile recorded" true (total >= 21)

(* ------------------------------------------------------------------ *)
(* Register allocator *)

let alloc_func src name ~pool =
  let p = Epic.Opt.standard (compile src) in
  match Ir.find_func p name with
  | Some f -> Regalloc.allocate f ~pool
  | None -> Alcotest.failf "no function %s" name

let collect_gprs (f : Ir.func) =
  let regs = ref [] in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun i ->
          List.iter
            (fun (c, r) -> if c = Ir.Cgpr then regs := r :: !regs)
            (Ir.defs_of_inst i @ Ir.uses_of_inst i))
        b.Ir.b_insts;
      List.iter
        (fun (c, r) -> if c = Ir.Cgpr then regs := r :: !regs)
        (Ir.uses_of_term b.Ir.b_term))
    f.Ir.f_blocks;
  List.sort_uniq compare !regs

let busy_src =
  "int main(int p, int q) {\n\
   \  int a = p + 1; int b = p + 2; int c = p + 3; int d = p + 4;\n\
   \  int e = p + 5; int f = p + 6; int g = p + 7; int h = p + 8;\n\
   \  int s = 0;\n\
   \  for (int t = 0; t < q; t++)\n\
   \    s += a * b + c * d + e * f + g * h + t;\n\
   \  return s + a + b + c + d + e + f + g + h;\n\
   }"

let test_alloc_stays_in_pool () =
  let pool = List.init 20 (fun k -> 12 + k) in
  let r = alloc_func busy_src "main" ~pool in
  Alcotest.(check int) "no spills with 20 regs" 0 r.Regalloc.spill_count;
  List.iter
    (fun reg ->
      if not (List.mem reg pool) then Alcotest.failf "r%d outside pool" reg)
    (collect_gprs r.Regalloc.fn);
  List.iter
    (fun reg -> if not (List.mem reg pool) then Alcotest.failf "used_regs r%d outside pool" reg)
    r.Regalloc.used_regs

let test_alloc_spills_under_pressure () =
  let pool = [ 12; 13; 14; 15; 16; 17 ] in
  let r = alloc_func busy_src "main" ~pool in
  Alcotest.(check bool) "spilled" true (r.Regalloc.spill_count > 0);
  Alcotest.(check bool) "frame grew" true (r.Regalloc.fn.Ir.f_frame_bytes > 0);
  (* Spill code present. *)
  let has_spill_ops =
    List.exists
      (fun (b : Ir.block) ->
        List.exists
          (fun (i : Ir.inst) ->
            match i.Ir.kind with
            | Ir.LoadFrame _ | Ir.StoreFrame _ -> true
            | _ -> false)
          b.Ir.b_insts)
      r.Regalloc.fn.Ir.f_blocks
  in
  Alcotest.(check bool) "spill loads/stores emitted" true has_spill_ops

let test_alloc_param_locations () =
  let pool = List.init 20 (fun k -> 12 + k) in
  let r = alloc_func "int main(int x, int y) { return x + 1; }" "main" ~pool in
  (match r.Regalloc.param_locs with
   | [ Some (Regalloc.Lreg p); None ] ->
     Alcotest.(check bool) "x in pool" true (List.mem p pool)
   | _ -> Alcotest.fail "expected [Some reg; None] parameter locations")

let test_alloc_rejects_tiny_pool () =
  match alloc_func busy_src "main" ~pool:[ 12; 13 ] with
  | exception Regalloc.Alloc_error _ -> ()
  | _ -> Alcotest.fail "pool of 2 must be rejected"

(* Spilled code must still be correct: run the spilled variant through the
   full EPIC backend on a tiny register file. *)
let test_spilled_code_correct () =
  let cfg =
    Epic.Config.validate_exn { Epic.Config.default with Epic.Config.n_gprs = 20 }
  in
  let expected = (Interp.run (compile busy_src) ~args:[ 9; 5 ] ~entry:"main").Interp.ret in
  let baked =
    Str.global_replace (Str.regexp_string "int main(") "int body__(" busy_src
    ^ "\nint main() { return body__(9, 5); }"
  in
  let a = Epic.Toolchain.compile_epic cfg ~source:baked () in
  Alcotest.(check int) "spilled run matches" expected
    (Epic.Toolchain.run_epic a).Epic.Sim.ret

let suite =
  [
    Alcotest.test_case "builder + validate + interp" `Quick test_builder_and_validate;
    Alcotest.test_case "validate: bad label" `Quick test_validate_catches_bad_label;
    Alcotest.test_case "validate: bad vreg" `Quick test_validate_catches_bad_vreg;
    Alcotest.test_case "defs/uses metadata" `Quick test_defs_uses;
    Alcotest.test_case "liveness in a loop" `Quick test_liveness_loop;
    Alcotest.test_case "liveness: dead def" `Quick test_liveness_dead_def;
    Alcotest.test_case "memmap layout" `Quick test_memmap_layout;
    Alcotest.test_case "memmap big-endian access" `Quick test_memmap_big_endian_bytes;
    Alcotest.test_case "interp runtime errors" `Quick test_interp_errors;
    Alcotest.test_case "interp block profile" `Quick test_interp_block_counts;
    Alcotest.test_case "regalloc: stays in pool" `Quick test_alloc_stays_in_pool;
    Alcotest.test_case "regalloc: spills under pressure" `Quick test_alloc_spills_under_pressure;
    Alcotest.test_case "regalloc: parameter locations" `Quick test_alloc_param_locations;
    Alcotest.test_case "regalloc: tiny pool rejected" `Quick test_alloc_rejects_tiny_pool;
    Alcotest.test_case "regalloc: spilled code correct" `Quick test_spilled_code_correct;
  ]

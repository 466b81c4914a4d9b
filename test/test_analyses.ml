(* Oracles for the compile path's analyses.  The dense liveness, the
   Cooper-Harvey-Kennedy dominators and the indexed scheduler dependence
   build are each compared against the straightforward implementation
   they replaced, kept here as test-only references, on random CFGs and
   blocks and on the compile corpus.  A digest pins the compiler's output
   bytes over a fixed configuration grid. *)

module Ir = Epic.Ir
module Liveness = Epic.Liveness
module Dom = Epic.Dominators
module D = Epic.Difftest
module Config = Epic.Config
module Mdes = Epic.Mdes
module Sched = Epic.Sched.Sched
module Codegen = Epic.Sched.Codegen
module A = Epic.Asm.Aunit
module Isa = Epic.Isa
module T = Epic.Toolchain

(* ------------------------------------------------------------------ *)
(* Reference implementations *)

(* Set-based iterative liveness: the fixpoint the dense analysis
   replaced. *)
module Ref_liveness = struct
  module RSet = Set.Make (struct
    type t = Ir.rclass * int

    let compare = compare
  end)

  type t = {
    live_in : (Ir.label, RSet.t) Hashtbl.t;
    live_out : (Ir.label, RSet.t) Hashtbl.t;
  }

  let block_use_def (b : Ir.block) =
    let rec go insts use def =
      match insts with
      | [] ->
        let use =
          List.fold_left
            (fun use r -> if RSet.mem r def then use else RSet.add r use)
            use (Ir.uses_of_term b.Ir.b_term)
        in
        (use, def)
      | i :: rest ->
        let use =
          List.fold_left
            (fun use r -> if RSet.mem r def then use else RSet.add r use)
            use
            (Ir.uses_of_inst i @ Ir.partial_defs i)
        in
        let def =
          if i.Ir.guard = None then
            List.fold_left (fun def r -> RSet.add r def) def (Ir.defs_of_inst i)
          else def
        in
        go rest use def
    in
    go b.Ir.b_insts RSet.empty RSet.empty

  let analyse (f : Ir.func) =
    let live_in = Hashtbl.create 16 and live_out = Hashtbl.create 16 in
    let use_def = Hashtbl.create 16 in
    List.iter
      (fun b ->
        Hashtbl.replace use_def b.Ir.b_id (block_use_def b);
        Hashtbl.replace live_in b.Ir.b_id RSet.empty;
        Hashtbl.replace live_out b.Ir.b_id RSet.empty)
      f.Ir.f_blocks;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun b ->
          let id = b.Ir.b_id in
          let out =
            List.fold_left
              (fun acc s -> RSet.union acc (Hashtbl.find live_in s))
              RSet.empty
              (Ir.successors b.Ir.b_term)
          in
          let use, def = Hashtbl.find use_def id in
          let inn = RSet.union use (RSet.diff out def) in
          if not (RSet.equal out (Hashtbl.find live_out id)) then begin
            Hashtbl.replace live_out id out;
            changed := true
          end;
          if not (RSet.equal inn (Hashtbl.find live_in id)) then begin
            Hashtbl.replace live_in id inn;
            changed := true
          end)
        (List.rev f.Ir.f_blocks)
    done;
    { live_in; live_out }

  let fold_block_backward t (b : Ir.block) ~init ~f =
    let after_term = Hashtbl.find t.live_out b.Ir.b_id in
    let live = ref (RSet.union after_term (RSet.of_list (Ir.uses_of_term b.Ir.b_term))) in
    let arr = Array.of_list b.Ir.b_insts in
    let acc = ref init in
    for k = Array.length arr - 1 downto 0 do
      let i = arr.(k) in
      acc := f !acc k i !live;
      let without_defs =
        if i.Ir.guard = None then
          List.fold_left (fun s r -> RSet.remove r s) !live (Ir.defs_of_inst i)
        else !live
      in
      live :=
        List.fold_left (fun s r -> RSet.add r s) without_defs
          (Ir.uses_of_inst i @ Ir.partial_defs i)
    done;
    !acc
end

(* Iterative set-intersection dominators: the analysis CHK replaced.  On
   a CFG with unreachable blocks its maximal fixpoint is not dominance (an
   unreachable block without predecessors gets {itself}, and intersecting
   that empties its successors' sets), so the oracle runs it on the
   reachable blocks only, where it is exact. *)
module Ref_dom = struct
  module LSet = Dom.LSet

  type t = {
    dom : (Ir.label, LSet.t) Hashtbl.t;
    preds : (Ir.label, Ir.label list) Hashtbl.t;
  }

  let predecessors (f : Ir.func) =
    let preds = Hashtbl.create 16 in
    List.iter (fun (b : Ir.block) -> Hashtbl.replace preds b.Ir.b_id []) f.Ir.f_blocks;
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun s -> Hashtbl.replace preds s (b.Ir.b_id :: Hashtbl.find preds s))
          (Ir.successors b.Ir.b_term))
      f.Ir.f_blocks;
    preds

  let analyse (f : Ir.func) =
    let entry = (Ir.entry_block f).Ir.b_id in
    let labels = List.map (fun (b : Ir.block) -> b.Ir.b_id) f.Ir.f_blocks in
    let all = LSet.of_list labels in
    let preds = predecessors f in
    let dom = Hashtbl.create 16 in
    List.iter
      (fun l -> Hashtbl.replace dom l (if l = entry then LSet.singleton entry else all))
      labels;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun l ->
          if l <> entry then begin
            let inter =
              List.fold_left
                (fun acc p ->
                  match acc with
                  | None -> Some (Hashtbl.find dom p)
                  | Some s -> Some (LSet.inter s (Hashtbl.find dom p)))
                None (Hashtbl.find preds l)
            in
            let next = LSet.add l (match inter with Some s -> s | None -> LSet.empty) in
            if not (LSet.equal next (Hashtbl.find dom l)) then begin
              Hashtbl.replace dom l next;
              changed := true
            end
          end)
        labels
    done;
    { dom; preds }

  let dominates t a b =
    match Hashtbl.find_opt t.dom b with Some s -> LSet.mem a s | None -> false

  let back_edges t (f : Ir.func) =
    List.concat_map
      (fun (b : Ir.block) ->
        List.filter_map
          (fun s -> if dominates t s b.Ir.b_id then Some (b.Ir.b_id, s) else None)
          (Ir.successors b.Ir.b_term))
      f.Ir.f_blocks

  let natural_loops t (f : Ir.func) =
    let by_header = Hashtbl.create 8 in
    List.iter
      (fun (u, h) ->
        let body = ref (LSet.of_list [ h; u ]) in
        let rec pull n =
          if not (LSet.mem n !body) then begin
            body := LSet.add n !body;
            List.iter pull (Hashtbl.find t.preds n)
          end
        in
        if u <> h then List.iter pull (Hashtbl.find t.preds u);
        let prev = Option.value ~default:LSet.empty (Hashtbl.find_opt by_header h) in
        Hashtbl.replace by_header h (LSet.union prev !body))
      (back_edges t f);
    Hashtbl.fold (fun header body acc -> (header, LSet.elements body) :: acc) by_header []
end

(* All-pairs dependence build: the scan the indexed build replaced. *)
module Ref_sched = struct
  let build_deps (md : Mdes.t) (insts : A.inst array) =
    let n = Array.length insts in
    let approx = Array.map A.to_isa_approx insts in
    let edges = Array.make n [] in
    let add_edge i j delay = edges.(j) <- (i, delay) :: edges.(j) in
    let lat i = Mdes.latency md approx.(i).Isa.op in
    for j = 0 to n - 1 do
      let jr = Isa.reads approx.(j) and jw = Isa.writes approx.(j) in
      let j_mem = Isa.is_load approx.(j).Isa.op || Isa.is_store approx.(j).Isa.op in
      let j_store = Isa.is_store approx.(j).Isa.op in
      let j_branch = Isa.is_branch approx.(j).Isa.op || approx.(j).Isa.op = Isa.HALT in
      for i = 0 to j - 1 do
        let iw = Isa.writes approx.(i) and ir = Isa.reads approx.(i) in
        let i_mem = Isa.is_load approx.(i).Isa.op || Isa.is_store approx.(i).Isa.op in
        let i_store = Isa.is_store approx.(i).Isa.op in
        let i_branch = Isa.is_branch approx.(i).Isa.op || approx.(i).Isa.op = Isa.HALT in
        if List.exists (fun r -> List.mem r jr) iw then add_edge i j (lat i);
        if List.exists (fun r -> List.mem r ir) jw then add_edge i j 0;
        if List.exists (fun r -> List.mem r iw) jw then
          add_edge i j (max 1 (lat i - lat j + 1));
        if (i_store && j_mem) || (i_mem && j_store) then add_edge i j 1;
        if i_branch then add_edge i j 1;
        if j_branch && not i_branch then add_edge i j 0
      done
    done;
    edges
end

(* ------------------------------------------------------------------ *)
(* Comparisons *)

let reachable (f : Ir.func) =
  let seen = Hashtbl.create 16 in
  let rec go l =
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.replace seen l ();
      List.iter go (Ir.successors (Ir.find_block f l).Ir.b_term)
    end
  in
  go (Ir.entry_block f).Ir.b_id;
  seen

(* Every difference between the dense liveness and the reference, as
   readable strings: per-block sets, the per-instruction sets of
   [fold_block_backward], and [mem] over the whole register range. *)
let liveness_diffs (f : Ir.func) =
  let live = Liveness.analyse f and rl = Ref_liveness.analyse f in
  let diffs = ref [] in
  let check what l got want =
    if got <> want then diffs := Printf.sprintf "%s %s L%d" f.Ir.f_name what l :: !diffs
  in
  let regs =
    List.init (f.Ir.f_nvregs + 2) (fun r -> (Ir.Cgpr, r))
    @ List.init (f.Ir.f_npregs + 2) (fun p -> (Ir.Cpred, p))
  in
  let same_mem what l s rs =
    check what l
      (List.map (fun r -> Liveness.mem live r s) regs)
      (List.map (fun r -> Ref_liveness.RSet.mem r rs) regs)
  in
  List.iter
    (fun (b : Ir.block) ->
      let l = b.Ir.b_id in
      let li = Liveness.live_in live l and lo = Liveness.live_out live l in
      let ri = Hashtbl.find rl.Ref_liveness.live_in l
      and ro = Hashtbl.find rl.Ref_liveness.live_out l in
      check "live_in" l (Liveness.elements live li) (Ref_liveness.RSet.elements ri);
      check "live_out" l (Liveness.elements live lo) (Ref_liveness.RSet.elements ro);
      same_mem "mem live_in" l li ri;
      same_mem "mem live_out" l lo ro;
      let got =
        Liveness.fold_block_backward live b ~init:[] ~f:(fun acc k _ s ->
            (k, Liveness.elements live s) :: acc)
      and want =
        Ref_liveness.fold_block_backward rl b ~init:[] ~f:(fun acc k _ s ->
            (k, Ref_liveness.RSet.elements s) :: acc)
      in
      check "fold_block_backward" l got want)
    f.Ir.f_blocks;
  List.rev !diffs

(* The reference dominator sets of the reachable blocks, with the whole
   CFG's predecessors so natural-loop bodies are built the same way. *)
let ref_dominators (f : Ir.func) =
  let seen = reachable f in
  let blocks = List.filter (fun (b : Ir.block) -> Hashtbl.mem seen b.Ir.b_id) f.Ir.f_blocks in
  { (Ref_dom.analyse { f with Ir.f_blocks = blocks }) with
    Ref_dom.preds = Ref_dom.predecessors f }

let loops_of t f =
  List.map
    (fun (l : Dom.loop) -> (l.Dom.header, Dom.LSet.elements l.Dom.body))
    (Dom.natural_loops t f)

(* [dominates] over every pair of blocks, reachable or not, and the
   natural loops in order (LICM's tie-breaks depend on it). *)
let dominator_diffs (f : Ir.func) =
  let t = Dom.analyse f and r = ref_dominators f in
  let labels = List.map (fun (b : Ir.block) -> b.Ir.b_id) f.Ir.f_blocks in
  let diffs =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if Dom.dominates t a b <> Ref_dom.dominates r a b then
              Some (Printf.sprintf "%s dominates L%d L%d" f.Ir.f_name a b)
            else None)
          labels)
      labels
  in
  if loops_of t f <> Ref_dom.natural_loops r f then
    diffs @ [ f.Ir.f_name ^ " natural_loops" ]
  else diffs

(* ------------------------------------------------------------------ *)
(* (a) Random CFGs: arbitrary edges, so nested, irreducible and self
   loops and unreachable blocks all occur.  The analyses never run code,
   so the CFGs need not terminate. *)

let gen_cfg_func seed =
  let rng = D.Rng.create seed in
  let nb = 1 + D.Rng.int rng 12 in
  let nv = 1 + D.Rng.int rng 8 and np = 1 + D.Rng.int rng 4 in
  (* Distinct labels in no particular order: layout need not follow ids. *)
  let labels = Array.init nb (fun k -> (3 * k) + D.Rng.int rng 3) in
  for k = nb - 1 downto 1 do
    let j = D.Rng.int rng (k + 1) in
    let x = labels.(k) in
    labels.(k) <- labels.(j);
    labels.(j) <- x
  done;
  let reg () = D.Rng.int rng nv and preg () = D.Rng.int rng np in
  let opnd () = if D.Rng.chance rng 70 then Ir.Reg (reg ()) else Ir.Imm (D.Rng.int rng 9) in
  let target () = labels.(D.Rng.int rng nb) in
  let kind () =
    match D.Rng.int rng 9 with
    | 0 | 1 -> Ir.Bin (Ir.Add, reg (), opnd (), opnd ())
    | 2 -> Ir.Mov (reg (), opnd ())
    | 3 -> Ir.Setp (Ir.Rlt, preg (), opnd (), opnd ())
    | 4 -> Ir.Load (Ir.I32, Ir.Sx, reg (), opnd (), opnd ())
    | 5 -> Ir.Store (Ir.I32, opnd (), opnd ())
    | 6 ->
      let d = if D.Rng.bool rng then Some (reg ()) else None in
      Ir.Call (d, "g", [ opnd (); opnd () ])
    | 7 -> Ir.LoadFrame (reg (), 0)
    | _ -> Ir.StoreFrame (0, reg ())
  in
  let inst () =
    let guard =
      if D.Rng.chance rng 25 then Some { Ir.g_reg = preg (); g_pos = D.Rng.bool rng } else None
    in
    { Ir.kind = kind (); guard }
  in
  let term () =
    match D.Rng.int rng 6 with
    | 0 -> Ir.Ret (if D.Rng.bool rng then Some (opnd ()) else None)
    | 1 | 2 -> Ir.Jmp (target ())
    | _ -> Ir.Br (Ir.Rne, opnd (), opnd (), target (), target ())
  in
  let blocks =
    Array.to_list
      (Array.map
         (fun l ->
           let b_insts = List.init (D.Rng.int rng 6) (fun _ -> inst ()) in
           { Ir.b_id = l; b_insts; b_term = term () })
         labels)
  in
  { Ir.f_name = "cfg"; f_params = []; f_nvregs = nv; f_npregs = np; f_blocks = blocks;
    f_frame_bytes = 4 }

let random_cfg_prop name diffs =
  QCheck.Test.make ~name ~count:500 QCheck.small_nat (fun n ->
      let f = gen_cfg_func (D.Rng.case_seed ~seed:43 ~index:n) in
      match diffs f with
      | [] -> true
      | ds ->
        QCheck.Test.fail_reportf "%s@.%a" (String.concat "; " ds) Ir.pp_func f)

let prop_liveness_random =
  random_cfg_prop "liveness = set fixpoint (random CFGs)" liveness_diffs

let prop_dominators_random =
  random_cfg_prop "dominators = iterative sets (random CFGs)" dominator_diffs

(* Unreachable blocks are outside the dominator tree: nothing dominates
   them, they dominate nothing, so no back edge starts there.  A loop body
   still takes in an unreachable block that branches into it, because the
   body is every block reaching the latch without passing the header. *)
let test_unreachable_dominance () =
  let blk id term = { Ir.b_id = id; b_insts = []; b_term = term } in
  let f =
    { Ir.f_name = "u"; f_params = []; f_nvregs = 1; f_npregs = 1; f_frame_bytes = 0;
      f_blocks =
        [ blk 0 (Ir.Jmp 1);
          blk 1 (Ir.Jmp 2);
          blk 2 (Ir.Br (Ir.Rne, Ir.Reg 0, Ir.Imm 0, 1, 3));
          blk 3 (Ir.Ret None);
          blk 4 (Ir.Jmp 2);                                      (* into the loop *)
          blk 5 (Ir.Br (Ir.Rne, Ir.Reg 0, Ir.Imm 0, 5, 1)) ] }  (* self-loop *)
  in
  let t = Dom.analyse f in
  let dom a b = Dom.dominates t a b in
  Alcotest.(check bool) "entry dominates the loop" true (dom 0 2);
  Alcotest.(check bool) "header dominates latch" true (dom 1 2);
  let never a b =
    Alcotest.(check bool) (Printf.sprintf "L%d does not dominate L%d" a b) false (dom a b)
  in
  List.iter
    (fun u ->
      List.iter
        (fun b ->
          never b u;
          never u b)
        [ 0; 1; 2; 3; 4; 5 ])
    [ 4; 5 ];
  Alcotest.(check (list (pair int (list int)))) "one loop, taking in L4"
    [ (1, [ 1; 2; 4 ]) ] (loops_of t f);
  Alcotest.(check (list string)) "matches the reference" [] (dominator_diffs f)

(* ------------------------------------------------------------------ *)
(* (b) The compile corpus after each prefix of the EPIC pass list *)

(* The four kernels at [epic_explore --small] sizes and examples/sha256.c,
   found from _build/default/test under [dune runtest] and from the
   repository root under [dune exec]. *)
let corpus () =
  let example =
    List.find Sys.file_exists [ "../examples/sha256.c"; "examples/sha256.c" ]
  in
  List.map
    (fun (b : Epic.Workloads.Sources.benchmark) ->
      (b.Epic.Workloads.Sources.bm_name, b.Epic.Workloads.Sources.bm_source))
    (Epic.Workloads.Sources.all ~sha_bytes:64 ~aes_iters:4 ~dct_size:(16, 16)
       ~dijkstra_nodes:12 ())
  @ [ ("sha256c", In_channel.with_open_bin example In_channel.input_all) ]

let test_corpus_prefixes () =
  List.iter
    (fun (name, source) ->
      let p = ref (Epic.Cfront.compile ~unroll:T.default_unroll source) in
      let check after =
        List.iter
          (fun f ->
            match liveness_diffs f @ dominator_diffs f with
            | [] -> ()
            | ds -> Alcotest.failf "%s after %s: %s" name after (String.concat "; " ds))
          !p.Ir.p_funcs
      in
      check "the front-end";
      List.iter
        (fun (pass : Epic.Opt.pass) ->
          if pass.Epic.Opt.pass_name = "licm" then
            List.iter
              (fun (f : Ir.func) ->
                Alcotest.(check int)
                  (Printf.sprintf "%s %s: LICM sees only reachable blocks" name f.Ir.f_name)
                  (List.length f.Ir.f_blocks) (Hashtbl.length (reachable f)))
              !p.Ir.p_funcs;
          p := pass.Epic.Opt.pass_run !p;
          check pass.Epic.Opt.pass_name)
        Epic.Opt.epic_passes)
    (corpus ())

(* ------------------------------------------------------------------ *)
(* Scheduler dependences: the same multiset of (pred, delay) edges per
   instruction, and the same cycle map. *)

let sched_diff md insts =
  let arr = Array.of_list insts in
  let sorted e = Array.map (List.sort compare) e in
  let catch f = try Ok (f ()) with e -> Error (Printexc.to_string e) in
  if sorted (Sched.build_deps md arr) <> sorted (Ref_sched.build_deps md arr) then
    Some "dependence edges differ"
  else if
    catch (fun () -> Sched.schedule_block_cycles md insts)
    <> catch (fun () -> Sched.schedule_with_deps md arr (Ref_sched.build_deps md arr))
  then Some "cycle maps differ"
  else None

let prop_sched_random =
  QCheck.Test.make ~name:"indexed deps = all-pairs scan (random bundles)" ~count:300
    QCheck.small_nat (fun n ->
      let rng = D.Rng.create (D.Rng.case_seed ~seed:47 ~index:n) in
      let cfg, u = D.gen_asm_case rng in
      (* The whole unit as one block: several branches, HALT, memory. *)
      let insts =
        List.concat_map
          (function A.Ibundle b -> b | A.Ilabel _ | A.Idirective _ -> [])
          u.A.items
      in
      List.for_all
        (fun alus ->
          match sched_diff (Mdes.of_config { cfg with Config.n_alus = alus }) insts with
          | None -> true
          | Some d -> QCheck.Test.fail_reportf "%d ALUs: %s" alus d)
        [ 1; cfg.Config.n_alus; 4 ])

let test_sched_corpus () =
  List.iter
    (fun (name, source) ->
      let mir = Epic.Opt.for_epic (Epic.Cfront.compile ~unroll:T.default_unroll source) in
      List.iter
        (fun alus ->
          let cfg = { Config.default with Config.n_alus = alus } in
          let p = Epic.Opt.Common.copy_program mir in
          let md = Mdes.of_config cfg in
          List.iter
            (fun (cf : Codegen.cfunc) ->
              List.iter
                (fun (cb : Codegen.cblock) ->
                  match sched_diff md cb.Codegen.cb_insts with
                  | None -> ()
                  | Some d ->
                    Alcotest.failf "%s %s, %d ALUs: %s" name cb.Codegen.cb_label alus d)
                cf.Codegen.cf_blocks)
            (Codegen.gen_program cfg (Epic.Memmap.layout p) p))
        [ 1; 4 ])
    (corpus ())

(* ------------------------------------------------------------------ *)
(* Byte-identity pin: the MD5 of every encoded word the corpus compiles to
   over an ALUs x issue width x pipeline stages grid, recorded before the
   analyses above were rewritten, which had to leave the code unchanged.
   A change that alters the emitted code on purpose (a new allocator, say)
   re-records it: run [dune exec test/test_main.exe -- test analyses],
   take the digest the failure prints, and say in CHANGES.md why the code
   changed. *)
let pinned_digest = "89c680e80338f0bf429fdc66fe275a2a"

let test_compile_pin () =
  let cache = T.Compile_cache.create () in
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun (_, source) ->
      List.iter
        (fun n_alus ->
          List.iter
            (fun issue_width ->
              List.iter
                (fun pipeline_stages ->
                  let cfg =
                    { Config.default with Config.n_alus; issue_width; pipeline_stages }
                  in
                  Array.iter (Buffer.add_int64_le buf)
                    (T.compile_epic ~cache cfg ~source ()).T.ea_words)
                [ 2; 3; 4 ])
            [ 1; 2; 4 ])
        [ 1; 2; 4 ])
    (corpus ());
  Alcotest.(check string) "ea_words digest" pinned_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_liveness_random;
    QCheck_alcotest.to_alcotest prop_dominators_random;
    Alcotest.test_case "dominance of unreachable blocks" `Quick test_unreachable_dominance;
    Alcotest.test_case "liveness + dominators on corpus pass prefixes" `Quick
      test_corpus_prefixes;
    QCheck_alcotest.to_alcotest prop_sched_random;
    Alcotest.test_case "indexed deps on corpus blocks, 1 and 4 ALUs" `Quick test_sched_corpus;
    Alcotest.test_case "compile output byte-identity pin" `Quick test_compile_pin;
  ]

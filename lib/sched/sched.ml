(* Resource-constrained list scheduling of basic blocks into issue
   bundles, driven by the machine description (the elcor role: "statically
   schedule the instructions by performing dependence analysis and
   resource conflict avoidance", paper Section 4.1).

   Dependences (on architectural registers from the ISA metadata, plus
   memory and control):
   - RAW: consumer at least [latency producer] cycles later;
   - WAR: same cycle allowed (register reads happen at issue);
   - WAW: later by enough cycles that the second write lands last;
   - memory: stores are ordered against all following memory operations
     and loads against following stores (no alias analysis);
   - control: every operation must issue no later than the block's branch,
     and branches are ordered among themselves.

   Resources per cycle: the per-unit counts from the mdes, total issue
   width, and the register-file port budget (the scheduler counts every
   GPR read and write against the 8-op budget — conservative with respect
   to forwarding, so a conforming schedule never stalls the hardware). *)

module Isa = Epic_isa
module Mdes = Epic_mdes
module A = Epic_asm.Aunit

type stats = {
  st_blocks : int;
  st_insts : int;        (* real operations scheduled *)
  st_bundles : int;      (* bundles emitted *)
}

let empty_stats = { st_blocks = 0; st_insts = 0; st_bundles = 0 }

let add_stats a b =
  { st_blocks = a.st_blocks + b.st_blocks;
    st_insts = a.st_insts + b.st_insts;
    st_bundles = a.st_bundles + b.st_bundles }

(* Dependence graph edges: edges.(j) = [(i, delay); ...] with i < j, one
   edge per pair and reason, so a pair related by several reasons (say RAW
   and memory order) has several edges.  Each instruction looks up the
   earlier writers and readers of its registers and the earlier memory
   operations and branches, so the cost is the number of edges, not the
   number of pairs.  The order of each edge list is unspecified: the
   scheduler reads edges only through counts, maxima and heights, and
   orders ready instructions by (height, index). *)
let build_deps (md : Mdes.t) (insts : A.inst array) =
  let n = Array.length insts in
  let approx = Array.map A.to_isa_approx insts in
  let edges = Array.make n [] in
  let add_edge i j delay = edges.(j) <- (i, delay) :: edges.(j) in
  let lat = Array.map (fun a -> Mdes.latency md a.Isa.op) approx in
  let key ((file : Isa.regfile), idx) =
    (3 * idx) + (match file with Isa.R_gpr -> 0 | Isa.R_pred -> 1 | Isa.R_btr -> 2)
  in
  let writers = Hashtbl.create 64 and readers = Hashtbl.create 64 in
  let earlier tbl r = Option.value ~default:[] (Hashtbl.find_opt tbl (key r)) in
  let record tbl j r = Hashtbl.replace tbl (key r) (j :: earlier tbl r) in
  (* One stamp array per register reason: [seen.(i) = j] once (i, j) has
     its edge, however many registers the two share. *)
  let raw = Array.make n (-1) and war = Array.make n (-1) and waw = Array.make n (-1) in
  let once seen i j delay =
    if seen.(i) <> j then begin
      seen.(i) <- j;
      add_edge i j delay
    end
  in
  let mems = ref [] and stores = ref [] and branches = ref [] and non_branches = ref [] in
  for j = 0 to n - 1 do
    let op = approx.(j).Isa.op in
    let jr = Isa.reads approx.(j) and jw = Isa.writes approx.(j) in
    let j_store = Isa.is_store op in
    let j_mem = Isa.is_load op || j_store in
    let j_branch = Isa.is_branch op || op = Isa.HALT in
    (* RAW *)
    List.iter (fun r -> List.iter (fun i -> once raw i j lat.(i)) (earlier writers r)) jr;
    (* WAR: write after read, same cycle legal *)
    List.iter (fun r -> List.iter (fun i -> once war i j 0) (earlier readers r)) jw;
    (* WAW: the later instruction's write must land strictly later *)
    List.iter
      (fun r ->
        List.iter
          (fun i -> once waw i j (max 1 (lat.(i) - lat.(j) + 1)))
          (earlier writers r))
      jw;
    (* Memory ordering: stores after every memory op, loads after stores *)
    if j_store then List.iter (fun i -> add_edge i j 1) !mems
    else if j_mem then List.iter (fun i -> add_edge i j 1) !stores;
    (* Control: branches stay in order and nothing moves past them *)
    List.iter (fun i -> add_edge i j 1) !branches;
    if j_branch then List.iter (fun i -> add_edge i j 0) !non_branches;
    List.iter (record readers j) jr;
    List.iter (record writers j) jw;
    if j_mem then mems := j :: !mems;
    if j_store then stores := j :: !stores;
    if j_branch then branches := j :: !branches else non_branches := j :: !non_branches
  done;
  edges

(* Critical-path height for priority. *)
let heights insts edges =
  let n = Array.length insts in
  let succ = Array.make n [] in
  Array.iteri
    (fun j preds -> List.iter (fun (i, d) -> succ.(i) <- (j, d) :: succ.(i)) preds)
    edges;
  let h = Array.make n 0 in
  for i = n - 1 downto 0 do
    h.(i) <- List.fold_left (fun acc (j, d) -> max acc (h.(j) + max 1 d)) 0 succ.(i)
  done;
  h

let unit_usage op = Isa.unit_of op

(* Schedule one block's instructions, given their dependence edges in
   [build_deps]'s shape, into cycle-indexed bundles: index = issue cycle,
   empty cycles left in place. *)
let schedule_with_deps (md : Mdes.t) (insts : A.inst array) edges : A.inst list array =
  let n = Array.length insts in
  if n = 0 then [||]
  else begin
    let approx = Array.map A.to_isa_approx insts in
    (* Feasibility: every instruction must fit an empty cycle, otherwise
       the greedy loop below could never place it. *)
    Array.iter
      (fun a ->
        let u = Isa.unit_of a.Isa.op in
        let cap =
          match u with
          | Isa.U_alu -> md.Mdes.md_alus
          | Isa.U_lsu -> md.Mdes.md_lsus
          | Isa.U_cmpu -> md.Mdes.md_cmpus
          | Isa.U_bru -> md.Mdes.md_brus
          | Isa.U_none -> max_int
        in
        if cap < 1 || Isa.gpr_port_ops a > md.Mdes.md_rf_port_budget then
          Epic_diag.raisef ~code:"sched/infeasible"
            ~context:
              [ ("op", Isa.string_of_opcode a.Isa.op);
                ("ports", string_of_int (Isa.gpr_port_ops a));
                ("port_budget", string_of_int md.Mdes.md_rf_port_budget) ]
            "%a cannot execute on this machine (unit absent or register \
             ports exceed the budget)"
            Isa.pp_inst a)
      approx;
    let height = heights insts edges in
    let cycle_of = Array.make n (-1) in
    let scheduled = ref 0 in
    (* Incremental readiness: count incoming dependence edges; placing an
       instruction decrements its successors and pushes their earliest
       start.  Keeps scheduling near O(V + E) instead of rescanning the
       whole block every cycle (unrolled DCT blocks exceed 10^3 ops). *)
    let pred_count = Array.make n 0 in
    let succ = Array.make n [] in
    Array.iteri
      (fun j preds ->
        pred_count.(j) <- List.length preds;
        List.iter (fun (i, d) -> succ.(i) <- (j, d) :: succ.(i)) preds)
      edges;
    let earliest = Array.make n 0 in
    let avail = ref [] in
    Array.iteri (fun k c -> if c = 0 then avail := k :: !avail) pred_count;
    (* When each architectural GPR's latest in-block value becomes
       available, for forwarding-aware port accounting (mirrors the
       simulator: a read is free exactly when the value arrives). *)
    let gpr_available : (int, int) Hashtbl.t = Hashtbl.create 32 in
    (* Per-cycle resource tables, grown on demand. *)
    let cycles : (int, int array * int ref * int ref) Hashtbl.t = Hashtbl.create 16 in
    (* (unit counts indexed by class, total issued, gpr ports) *)
    let unit_index = function
      | Isa.U_alu -> 0 | Isa.U_lsu -> 1 | Isa.U_cmpu -> 2 | Isa.U_bru -> 3
      | Isa.U_none -> 4
    in
    let capacity = function
      | Isa.U_alu -> md.Mdes.md_alus
      | Isa.U_lsu -> md.Mdes.md_lsus
      | Isa.U_cmpu -> md.Mdes.md_cmpus
      | Isa.U_bru -> md.Mdes.md_brus
      | Isa.U_none -> max_int
    in
    let cycle_state c =
      match Hashtbl.find_opt cycles c with
      | Some s -> s
      | None ->
        let s = (Array.make 5 0, ref 0, ref 0) in
        Hashtbl.replace cycles c s;
        s
    in
    let port_need c k =
      let a = approx.(k) in
      let reads =
        List.fold_left
          (fun acc (file, idx) ->
            match (file : Isa.regfile) with
            | Isa.R_gpr ->
              let forwarded =
                md.Mdes.md_forwarding && Hashtbl.find_opt gpr_available idx = Some c
              in
              if forwarded then acc else acc + 1
            | Isa.R_pred | Isa.R_btr -> acc)
          0 (Isa.reads a)
      in
      let writes =
        List.fold_left
          (fun acc (file, _) -> match (file : Isa.regfile) with
             | Isa.R_gpr -> acc + 1 | Isa.R_pred | Isa.R_btr -> acc)
          0 (Isa.writes a)
      in
      reads + writes
    in
    let fits c k =
      let units, total, ports = cycle_state c in
      let u = unit_usage approx.(k).Isa.op in
      !total < md.Mdes.md_issue_width
      && units.(unit_index u) < capacity u
      && !ports + port_need c k <= md.Mdes.md_rf_port_budget
    in
    let place c k =
      let units, total, ports = cycle_state c in
      let u = unit_usage approx.(k).Isa.op in
      units.(unit_index u) <- units.(unit_index u) + 1;
      incr total;
      ports := !ports + port_need c k;
      List.iter
        (fun (file, idx) ->
          match (file : Isa.regfile) with
          | Isa.R_gpr ->
            Hashtbl.replace gpr_available idx
              (c + Mdes.latency md approx.(k).Isa.op)
          | Isa.R_pred | Isa.R_btr -> ())
        (Isa.writes approx.(k));
      cycle_of.(k) <- c;
      incr scheduled;
      List.iter
        (fun (j, d) ->
          earliest.(j) <- max earliest.(j) (c + d);
          pred_count.(j) <- pred_count.(j) - 1;
          if pred_count.(j) = 0 then avail := j :: !avail)
        succ.(k)
    in
    let current = ref 0 in
    while !scheduled < n do
      let ready, waiting = List.partition (fun k -> earliest.(k) <= !current) !avail in
      let ready = List.sort (fun a b -> compare (- height.(a), a) (- height.(b), b)) ready in
      (* [place] pushes instructions that just became ready onto [avail];
         start from empty so they are kept. *)
      avail := [];
      let leftover =
        List.filter
          (fun k ->
            if fits !current k && earliest.(k) <= !current then begin
              place !current k;
              false
            end
            else true)
          ready
      in
      avail := !avail @ leftover @ waiting;
      (* Jump to the next cycle where something can become ready. *)
      (match !avail with
       | [] -> incr current
       | ks ->
         let next = List.fold_left (fun m k -> min m earliest.(k)) max_int ks in
         current := max (!current + 1) (min next (!current + 1000000)))
    done;
    let max_cycle = Array.fold_left max 0 cycle_of in
    let bundles = Array.make (max_cycle + 1) [] in
    Array.iteri (fun k c -> bundles.(c) <- k :: bundles.(c)) cycle_of;
    (* Preserve original order within a bundle: phase-2 execution is
       sequential over slots, so program order within a cycle keeps
       same-bundle memory and branch semantics sequential. *)
    Array.map (fun ks -> List.map (fun k -> insts.(k)) (List.sort compare ks)) bundles
  end

(* [schedule_with_deps] over the block's own dependences.  This is the
   stall-free form the schedule-contract checker (Epic_difftest) replays
   against the mdes; [schedule_block] below compresses it for emission
   (safe under the interlock: bundles are never merged, so within-bundle
   semantics are unchanged and the scoreboard re-inserts the latency
   cycles). *)
let schedule_block_cycles (md : Mdes.t) (insts : A.inst list) : A.inst list array =
  let insts = Array.of_list insts in
  schedule_with_deps md insts (build_deps md insts)

(* Schedule one block's instruction list into bundles. *)
let schedule_block (md : Mdes.t) (insts : A.inst list) : A.inst list list =
  Array.to_list (schedule_block_cycles md insts) |> List.filter (fun b -> b <> [])

(* A trivial one-op-per-bundle schedule, for debugging and as a baseline
   in the scheduler's own tests. *)
let schedule_sequential (insts : A.inst list) : A.inst list list =
  List.map (fun i -> [ i ]) insts

(* Schedule a code-generated function into assembly items. *)
let schedule_cfunc ?(scheduling = true) (md : Mdes.t) (cf : Codegen.cfunc) =
  let stats = ref empty_stats in
  let items =
    List.concat_map
      (fun (cb : Codegen.cblock) ->
        let bundles =
          if scheduling then schedule_block md cb.Codegen.cb_insts
          else schedule_sequential cb.Codegen.cb_insts
        in
        stats :=
          add_stats !stats
            { st_blocks = 1;
              st_insts = List.length cb.Codegen.cb_insts;
              st_bundles = List.length bundles };
        A.Ilabel cb.Codegen.cb_label :: List.map (fun b -> A.Ibundle b) bundles)
      cf.Codegen.cf_blocks
  in
  (items, !stats)

let schedule_program ?scheduling (md : Mdes.t) (cfuncs : Codegen.cfunc list) =
  let stats = ref empty_stats in
  let items =
    List.concat_map
      (fun cf ->
        let items, st = schedule_cfunc ?scheduling md cf in
        stats := add_stats !stats st;
        items)
      cfuncs
  in
  ({ A.items }, !stats)

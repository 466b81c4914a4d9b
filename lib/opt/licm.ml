(* Loop-invariant code motion.  Pure instructions whose operands are not
   defined inside the loop move to a fresh preheader.  The big practical
   winners here are global-address materialisations (AddrOf) and address
   arithmetic recomputed on every iteration, which local CSE cannot reach
   across the back edge.

   Safety conditions for hoisting instruction [i] with destination [d]:
   - pure, unguarded, and total (no Div/Rem: the preheader executes even
     when the loop body would not);
   - every register operand has no definition inside the loop;
   - [d] has exactly one definition in the loop (this one);
   - [d] is not live into the header (no use of a previous-iteration or
     pre-loop value);
   - [d] is not live into any loop exit (the loop may exit before the
     original definition executed).

   Hoisting iterates, so chains of invariant computations migrate one
   layer per round. *)

module Ir = Epic_mir.Ir
module Dom = Epic_mir.Dominators
module Liveness = Epic_mir.Liveness

let pure_total (k : Ir.inst_kind) =
  match k with
  | Ir.Bin ((Ir.Div | Ir.Rem), _, _, _) -> false
  | Ir.Bin _ | Ir.Mov _ | Ir.Cmp _ | Ir.Custom _ | Ir.AddrOf _ | Ir.FrameAddr _ ->
    true
  | Ir.Load _ | Ir.LoadFrame _  (* memory may change inside the loop *)
  | Ir.Store _ | Ir.StoreFrame _ | Ir.Call _ | Ir.Setp _ ->
    false

let fresh_label (f : Ir.func) =
  1 + List.fold_left (fun acc (b : Ir.block) -> max acc b.Ir.b_id) 0 f.Ir.f_blocks

(* Retarget every edge into [header] from outside [body] to [pre]. *)
let redirect_entries (f : Ir.func) body header pre =
  List.iter
    (fun (b : Ir.block) ->
      if (not (Dom.LSet.mem b.Ir.b_id body)) && b.Ir.b_id <> pre then begin
        let r l = if l = header then pre else l in
        b.Ir.b_term <-
          (match b.Ir.b_term with
           | Ir.Jmp l -> Ir.Jmp (r l)
           | Ir.Br (c, x, y, lt, lf) -> Ir.Br (c, x, y, r lt, r lf)
           | Ir.Ret _ as t -> t)
      end)
    f.Ir.f_blocks

let hoist_loop (f : Ir.func) (live : Liveness.t Lazy.t) (l : Dom.loop) =
  let body_blocks =
    List.filter (fun (b : Ir.block) -> Dom.LSet.mem b.Ir.b_id l.Dom.body) f.Ir.f_blocks
  in
  (* Definition counts inside the loop, per GPR-class register. *)
  let def_count = Hashtbl.create 32 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun i ->
          List.iter
            (fun (c, r) ->
              if c = Ir.Cgpr then
                Hashtbl.replace def_count r
                  (1 + Option.value ~default:0 (Hashtbl.find_opt def_count r)))
            (Ir.defs_of_inst i))
        b.Ir.b_insts)
    body_blocks;
  (* Live into the header or into a label outside the loop reachable from
     inside (an exit target).  Only a candidate forces the round's
     liveness, so it is computed before any hoist mutates [f]. *)
  let live_across d =
    let live = Lazy.force live in
    let live_into l = Liveness.mem live (Ir.Cgpr, d) (Liveness.live_in live l) in
    live_into l.Dom.header
    || List.exists
         (fun (b : Ir.block) ->
           List.exists
             (fun s -> (not (Dom.LSet.mem s l.Dom.body)) && live_into s)
             (Ir.successors b.Ir.b_term))
         body_blocks
  in
  let operand_invariant (o : Ir.operand) =
    match o with
    | Ir.Imm _ -> true
    | Ir.Reg r -> not (Hashtbl.mem def_count r)
  in
  let hoistable (i : Ir.inst) =
    i.Ir.guard = None
    && pure_total i.Ir.kind
    && List.for_all
         (fun (c, r) -> c <> Ir.Cgpr || not (Hashtbl.mem def_count r))
         (Ir.uses_of_inst i)
    && (match Ir.defs_of_inst i with
        | [ (Ir.Cgpr, d) ] ->
          Hashtbl.find_opt def_count d = Some 1 && not (live_across d)
        | _ -> false)
    &&
    (* operand_invariant is already covered by the uses check; keep the
       helper for readability of intent. *)
    List.for_all
      (fun o -> operand_invariant o)
      (match i.Ir.kind with
       | Ir.Bin (_, _, a, b) | Ir.Cmp (_, _, a, b) | Ir.Custom (_, _, a, b) ->
         [ a; b ]
       | Ir.Mov (_, a) -> [ a ]
       | _ -> [])
  in
  let hoisted = ref [] in
  List.iter
    (fun (b : Ir.block) ->
      let keep, out = List.partition (fun i -> not (hoistable i)) b.Ir.b_insts in
      if out <> [] then begin
        b.Ir.b_insts <- keep;
        hoisted := !hoisted @ out;
        (* The moved definitions no longer count as in-loop defs, but we
           only perform one harvest per loop per round; chains migrate on
           the next round. *)
        List.iter
          (fun i ->
            List.iter
              (fun (c, r) -> if c = Ir.Cgpr then Hashtbl.remove def_count r)
              (Ir.defs_of_inst i))
          out
      end)
    body_blocks;
  match !hoisted with
  | [] -> false
  | insts ->
    let pre = fresh_label f in
    let pre_block = { Ir.b_id = pre; b_insts = insts; b_term = Ir.Jmp l.Dom.header } in
    redirect_entries f l.Dom.body l.Dom.header pre;
    (* Keep layout order: the preheader sits right before its header. *)
    let rec insert = function
      | [] -> [ pre_block ]
      | (b : Ir.block) :: rest when b.Ir.b_id = l.Dom.header -> pre_block :: b :: rest
      | b :: rest -> b :: insert rest
    in
    f.Ir.f_blocks <- insert f.Ir.f_blocks;
    true

let run_func (f : Ir.func) =
  (* Hoisting rewires the CFG, so loop/dominator/liveness facts go stale
     after every successful hoist: harvest one loop per round and
     re-analyse.  Innermost (smallest) loops first, so values migrate
     outward one level per round.  A [hoist_loop] that hoists nothing
     mutates nothing, so every loop a round tries shares the round's one
     dominator tree and one liveness, computed only if some loop has a
     candidate.  The 16-round cap, not a fixed point, ends the largest
     functions (AES's [main] is still hoisting at round 16). *)
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 16 do
    incr rounds;
    changed := false;
    let doms = Dom.analyse f in
    let loops =
      List.sort
        (fun a b -> compare (Dom.LSet.cardinal a.Dom.body) (Dom.LSet.cardinal b.Dom.body))
        (Dom.natural_loops doms f)
    in
    let live = lazy (Liveness.analyse f) in
    changed := List.exists (fun l -> hoist_loop f live l) loops
  done

let run (p : Ir.program) =
  List.iter run_func p.Ir.p_funcs;
  p

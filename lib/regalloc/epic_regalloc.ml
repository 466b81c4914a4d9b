(** Linear-scan register allocation on MIR (Poletto & Sarkar style).

    Both backends use this pass: the EPIC backend with the large
    configurable register file (paper default: 64 GPRs, of which 52 are
    allocatable), the SA-110 baseline with ARM's 8 allocatable registers.
    The allocator is deliberately target-neutral: it maps virtual
    registers onto an arbitrary list of physical register numbers and
    spills the rest to frame slots ({!Epic_mir.Ir.LoadFrame} /
    [StoreFrame]).

    Free registers are handed out FIFO so that recently-freed registers
    are not reused immediately: this reduces false (WAR/WAW) dependences,
    which matters for the EPIC list scheduler downstream.

    Predicate virtuals are not allocated here — they are block-local by
    construction (if-conversion) and mapped by the EPIC backend. *)

module Ir = Epic_mir.Ir
module Liveness = Epic_mir.Liveness

exception Alloc_error of string

type location = Lreg of int | Lslot of int  (** Physical register or frame byte offset. *)

type result = {
  fn : Ir.func;
      (** Rewritten function: every GPR-class virtual register is a
          physical register number from the pool (or a scratch); spill
          code has been inserted; [f_frame_bytes] includes spill slots. *)
  param_locs : location option list;
      (** Where each parameter value must be placed by the prologue;
          [None] when the parameter is never used. *)
  used_regs : int list;
      (** Physical registers the body writes (for callee-save). *)
  spill_count : int;  (** Virtual registers that received a frame slot. *)
}

(* Linearise: assign each instruction a position; block boundaries get
   positions too so that cross-block liveness extends intervals. *)
let build_intervals (f : Ir.func) =
  let live = Liveness.analyse f in
  let start_of = Hashtbl.create 64 and end_of = Hashtbl.create 64 in
  let touch r pos =
    if not (Hashtbl.mem start_of r) then Hashtbl.replace start_of r pos;
    Hashtbl.replace end_of r (max pos (try Hashtbl.find end_of r with Not_found -> pos));
    if pos < Hashtbl.find start_of r then Hashtbl.replace start_of r pos
  in
  let pos = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      let bstart = !pos in
      Liveness.iter live
        (fun (cls, r) -> if cls = Ir.Cgpr then touch r bstart)
        (Liveness.live_in live b.Ir.b_id);
      List.iter
        (fun (i : Ir.inst) ->
          incr pos;
          List.iter
            (fun (cls, r) -> if cls = Ir.Cgpr then touch r !pos)
            (Ir.uses_of_inst i @ Ir.defs_of_inst i))
        b.Ir.b_insts;
      incr pos;
      List.iter
        (fun (cls, r) -> if cls = Ir.Cgpr then touch r !pos)
        (Ir.uses_of_term b.Ir.b_term);
      Liveness.iter live
        (fun (cls, r) -> if cls = Ir.Cgpr then touch r !pos)
        (Liveness.live_out live b.Ir.b_id))
    f.Ir.f_blocks;
  Hashtbl.fold
    (fun r s acc -> (r, s, Hashtbl.find end_of r) :: acc)
    start_of []
  |> List.sort (fun (_, s1, _) (_, s2, _) -> compare s1 s2)

(* Core linear scan: returns vreg -> location.

   Register hand-out policy: recycled registers are used FIFO (reduces
   false dependences), but fresh never-touched registers are only drawn
   while the footprint stays proportional to the actual pressure (twice
   the live-interval count, plus slack).  This keeps the callee-save set
   — and hence the call save/restore memory traffic — small for simple
   functions, while ILP-rich kernels still spread across the whole file
   and avoid false WAW/WAR dependences from eager reuse. *)
let footprint_slack = 12

let scan intervals pool =
  let fresh = Queue.create () in
  List.iter (fun r -> Queue.add r fresh) pool;
  let recycled = Queue.create () in
  let touched = ref 0 in
  let active = ref [] in  (* (end, vreg, phys), sorted by end *)
  let take_free () =
    let target = (2 * List.length !active) + footprint_slack in
    if (not (Queue.is_empty recycled))
       && (!touched >= target || Queue.is_empty fresh)
    then Some (Queue.pop recycled)
    else if not (Queue.is_empty fresh) then begin
      incr touched;
      Some (Queue.pop fresh)
    end
    else if not (Queue.is_empty recycled) then Some (Queue.pop recycled)
    else None
  in
  let assignment = Hashtbl.create 64 in
  let spills = ref [] in
  let expire start =
    let expired, rest = List.partition (fun (e, _, _) -> e < start) !active in
    List.iter (fun (_, _, phys) -> Queue.add phys recycled) expired;
    active := rest
  in
  let add_active entry =
    active := List.sort (fun (e1, _, _) (e2, _, _) -> compare e1 e2) (entry :: !active)
  in
  List.iter
    (fun (vreg, s, e) ->
      expire s;
      match take_free () with
      | None ->
        (* Spill the interval that ends furthest in the future. *)
        (match List.rev !active with
         | (e', v', phys) :: _ when e' > e ->
           Hashtbl.replace assignment v' `Spill;
           spills := v' :: !spills;
           active := List.filter (fun (_, v, _) -> v <> v') !active;
           Hashtbl.replace assignment vreg (`Reg phys);
           add_active (e, vreg, phys)
         | _ ->
           Hashtbl.replace assignment vreg `Spill;
           spills := vreg :: !spills)
      | Some phys ->
        Hashtbl.replace assignment vreg (`Reg phys);
        add_active (e, vreg, phys))
    intervals;
  assignment

(* Rewrite the body with the assignment, inserting spill code.  Scratch
   registers host spilled values around single instructions.  Returns the
   rewritten function, the final frame size, the set of physical registers
   touched, and the spill-slot table (vreg -> frame offset). *)
let rewrite (f : Ir.func) assignment ~scratch =
  let slot_of = Hashtbl.create 16 in
  let next_slot = ref f.Ir.f_frame_bytes in
  let slot v =
    match Hashtbl.find_opt slot_of v with
    | Some s -> s
    | None ->
      let s = !next_slot in
      next_slot := s + 4;
      Hashtbl.replace slot_of v s;
      s
  in
  let used = Hashtbl.create 16 in
  let loc v =
    match Hashtbl.find_opt assignment v with
    | Some (`Reg p) -> Lreg p
    | Some `Spill -> Lslot (slot v)
    | None -> Lreg (List.hd scratch)  (* dead vreg: any scratch will do *)
  in
  let rewrite_inst (i : Ir.inst) =
    (* Map spilled uses to scratch registers (reloaded before), spilled
       defs to a scratch stored after. *)
    let pre = ref [] and post = ref [] in
    let scratch_pool = ref scratch in
    let take_scratch () =
      match !scratch_pool with
      | s :: rest -> scratch_pool := rest; s
      | [] -> raise (Alloc_error "ran out of spill scratch registers")
    in
    let use_map = Hashtbl.create 4 in
    let map_use v =
      match loc v with
      | Lreg p -> Hashtbl.replace used p (); p
      | Lslot off ->
        (match Hashtbl.find_opt use_map v with
         | Some s -> s
         | None ->
           let s = take_scratch () in
           Hashtbl.replace use_map v s;
           (* A guarded instruction's reload must be unconditional: the
              scratch read happens only if the guard is true, but loading
              is always safe. *)
           pre := !pre @ [ Ir.no_guard (Ir.LoadFrame (s, off)) ];
           Hashtbl.replace used s ();
           s)
    in
    let map_def v =
      match loc v with
      | Lreg p -> Hashtbl.replace used p (); p
      | Lslot off ->
        (* Reuse the scratch already holding this vreg if the instruction
           both reads and writes it. *)
        let s =
          match Hashtbl.find_opt use_map v with
          | Some s -> s
          | None -> take_scratch ()
        in
        (* A guarded def must only store when the guard fires; carry the
           guard onto the spill store. *)
        post := !post @ [ { Ir.kind = Ir.StoreFrame (off, s); guard = i.Ir.guard } ];
        Hashtbl.replace used s ();
        s
    in
    let op = function Ir.Reg v -> Ir.Reg (map_use v) | Ir.Imm _ as o -> o in
    let kind =
      match i.Ir.kind with
      | Ir.Bin (o, d, a, b) ->
        let a = op a and b = op b in
        Ir.Bin (o, map_def d, a, b)
      | Ir.Mov (d, a) -> let a = op a in Ir.Mov (map_def d, a)
      | Ir.Cmp (r, d, a, b) ->
        let a = op a and b = op b in
        Ir.Cmp (r, map_def d, a, b)
      | Ir.Setp (r, q, a, b) -> Ir.Setp (r, q, op a, op b)
      | Ir.Custom (n, d, a, b) ->
        let a = op a and b = op b in
        Ir.Custom (n, map_def d, a, b)
      | Ir.Load (sz, e, d, base, off) ->
        let base = op base and off = op off in
        Ir.Load (sz, e, map_def d, base, off)
      | Ir.Store (sz, a, v) -> Ir.Store (sz, op a, op v)
      | Ir.Call (d, g, args) ->
        let args = List.map op args in
        Ir.Call (Option.map map_def d, g, args)
      | Ir.AddrOf (d, g) -> Ir.AddrOf (map_def d, g)
      | Ir.FrameAddr (d, o) -> Ir.FrameAddr (map_def d, o)
      | Ir.LoadFrame (d, o) -> Ir.LoadFrame (map_def d, o)
      | Ir.StoreFrame (o, v) -> Ir.StoreFrame (o, map_use v)
    in
    !pre @ [ { i with Ir.kind } ] @ !post
  in
  List.iter
    (fun (b : Ir.block) ->
      b.Ir.b_insts <- List.concat_map rewrite_inst b.Ir.b_insts;
      (* Terminators read registers too. *)
      let pre = ref [] in
      let term_op o =
        match o with
        | Ir.Imm _ -> o
        | Ir.Reg v ->
          (match loc v with
           | Lreg p -> Hashtbl.replace used p (); Ir.Reg p
           | Lslot off ->
             let s = List.hd scratch in
             pre := !pre @ [ Ir.no_guard (Ir.LoadFrame (s, off)) ];
             Hashtbl.replace used s ();
             Ir.Reg s)
      in
      let term_op2 a b =
        match (a, b) with
        | Ir.Reg va, Ir.Reg vb when loc va = loc vb -> let a' = term_op a in (a', a')
        | _ ->
          let a' = term_op a in
          let b' =
            match b with
            | Ir.Imm _ -> b
            | Ir.Reg v ->
              (match loc v with
               | Lreg p -> Hashtbl.replace used p (); Ir.Reg p
               | Lslot off ->
                 let s = List.nth scratch 1 in
                 pre := !pre @ [ Ir.no_guard (Ir.LoadFrame (s, off)) ];
                 Hashtbl.replace used s ();
                 Ir.Reg s)
          in
          (a', b')
      in
      (match b.Ir.b_term with
       | Ir.Ret (Some o) -> b.Ir.b_term <- Ir.Ret (Some (term_op o))
       | Ir.Ret None | Ir.Jmp _ -> ()
       | Ir.Br (r, a, b', lt, lf) ->
         let a, b'' = term_op2 a b' in
         b.Ir.b_term <- Ir.Br (r, a, b'', lt, lf));
      (* Reloads for terminator operands come after the body. *)
      b.Ir.b_insts <- b.Ir.b_insts @ !pre)
    f.Ir.f_blocks;
  (f, !next_slot, used, slot_of)

let allocate (f : Ir.func) ~pool =
  if List.length pool < 5 then
    raise (Alloc_error "register pool too small (need at least 5)");
  let f = {
    Ir.f_name = f.Ir.f_name;
    f_params = f.Ir.f_params;
    f_nvregs = f.Ir.f_nvregs;
    f_npregs = f.Ir.f_npregs;
    f_blocks =
      List.map
        (fun (b : Ir.block) ->
          { Ir.b_id = b.Ir.b_id; b_insts = b.Ir.b_insts; b_term = b.Ir.b_term })
        f.Ir.f_blocks;
    f_frame_bytes = f.Ir.f_frame_bytes;
  } in
  let intervals = build_intervals f in
  (* First try with the whole pool; if anything spills, retry with three
     registers reserved as spill scratch. *)
  let attempt reserve =
    let scratch, avail =
      if reserve then
        (match pool with
         | a :: b :: c :: rest -> ([ a; b; c ], rest)
         | _ -> assert false)
      else ([ List.hd pool ], pool)
    in
    let assignment = scan intervals avail in
    let any_spill = Hashtbl.fold (fun _ v acc -> acc || v = `Spill) assignment false in
    if any_spill && not reserve then None else Some (assignment, scratch)
  in
  let assignment, scratch =
    match attempt false with
    | Some r -> r
    | None ->
      (match attempt true with
       | Some r -> r
       | None -> assert false)
  in
  let spill_count = Hashtbl.fold (fun _ v acc -> if v = `Spill then acc + 1 else acc) assignment 0 in
  let f, frame_bytes, used, slot_of = rewrite f assignment ~scratch in
  f.Ir.f_frame_bytes <- frame_bytes;
  let param_locs =
    List.map
      (fun v ->
        match Hashtbl.find_opt assignment v with
        | Some (`Reg p) -> Some (Lreg p)
        | Some `Spill ->
          (* A spilled parameter that is actually used has a slot from the
             body rewrite; the prologue stores the incoming register there.
             A spilled-but-untouched parameter would have no slot, but a
             vreg only gets an interval (and thus an assignment) when some
             instruction mentions it. *)
          (match Hashtbl.find_opt slot_of v with
           | Some off -> Some (Lslot off)
           | None ->
             raise (Alloc_error (Printf.sprintf "spilled parameter v%d has no slot" v)))
        | None -> None  (* parameter never used *))
      f.Ir.f_params
  in
  let used_regs = Hashtbl.fold (fun r () acc -> r :: acc) used [] |> List.sort compare in
  { fn = f; param_locs; used_regs; spill_count }

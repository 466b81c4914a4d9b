(* Backward iterative liveness over MIR as dense bitsets (see the
   interface).  [n_gpr] covers every GPR-class register the function
   names, so ascending bit order is ascending [(rclass, int)] order, the
   order the register allocator's interval tie-breaks depend on.  One
   analysis is shared by LICM (per round), DCE (per round) and interval
   construction. *)

type set = int array

type t = {
  n_gpr : int;                          (* first predicate bit *)
  n_bits : int;
  index : (Ir.label, int) Hashtbl.t;    (* block label -> position *)
  live_in : set array;
  live_out : set array;
}

let word_bits = Sys.int_size

let words n = (n + word_bits - 1) / word_bits

let bit t ((cls : Ir.rclass), r) =
  match cls with Ir.Cgpr -> r | Ir.Cpred -> t.n_gpr + r

let get (s : set) k = s.(k / word_bits) land (1 lsl (k mod word_bits)) <> 0

let set_bit (s : set) k =
  let w = k / word_bits in
  s.(w) <- s.(w) lor (1 lsl (k mod word_bits))

let clear_bit (s : set) k =
  let w = k / word_bits in
  s.(w) <- s.(w) land lnot (1 lsl (k mod word_bits))

let mem t ((cls, r) as reg) s =
  r >= 0 && (cls = Ir.Cpred || r < t.n_gpr) && bit t reg < t.n_bits && get s (bit t reg)

let iter t f (s : set) =
  Array.iteri
    (fun w x ->
      if x <> 0 then
        for b = 0 to word_bits - 1 do
          if x land (1 lsl b) <> 0 then begin
            let k = (w * word_bits) + b in
            f (if k < t.n_gpr then (Ir.Cgpr, k) else (Ir.Cpred, k - t.n_gpr))
          end
        done)
    s

let elements t s =
  let acc = ref [] in
  iter t (fun r -> acc := r :: !acc) s;
  List.rev !acc

(* use = registers read before any (full) definition; def = registers
   fully defined.  A guarded definition does not kill. *)
let block_use_def t (b : Ir.block) =
  let use = Array.make (words t.n_bits) 0 and def = Array.make (words t.n_bits) 0 in
  let read r = let k = bit t r in if not (get def k) then set_bit use k in
  List.iter
    (fun (i : Ir.inst) ->
      List.iter read (Ir.uses_of_inst i);
      List.iter read (Ir.partial_defs i);
      if i.Ir.guard = None then
        List.iter (fun r -> set_bit def (bit t r)) (Ir.defs_of_inst i))
    b.Ir.b_insts;
  List.iter read (Ir.uses_of_term b.Ir.b_term);
  (use, def)

(* The register index: one past the largest register of each class the
   function names, so a malformed [f_nvregs] cannot alias the classes. *)
let index_bounds (f : Ir.func) =
  let n_gpr = ref f.Ir.f_nvregs and n_pred = ref f.Ir.f_npregs in
  let see ((cls : Ir.rclass), r) =
    match cls with
    | Ir.Cgpr -> n_gpr := max !n_gpr (r + 1)
    | Ir.Cpred -> n_pred := max !n_pred (r + 1)
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun i ->
          List.iter see (Ir.uses_of_inst i);
          List.iter see (Ir.defs_of_inst i))
        b.Ir.b_insts;
      List.iter see (Ir.uses_of_term b.Ir.b_term))
    f.Ir.f_blocks;
  (!n_gpr, !n_pred)

let analyse (f : Ir.func) =
  let n_gpr, n_pred = index_bounds f in
  let blocks = Array.of_list f.Ir.f_blocks in
  let nb = Array.length blocks in
  let nw = words (n_gpr + n_pred) in
  let index = Hashtbl.create (2 * nb) in
  Array.iteri (fun k (b : Ir.block) -> Hashtbl.replace index b.Ir.b_id k) blocks;
  let t =
    { n_gpr; n_bits = n_gpr + n_pred; index;
      live_in = Array.init nb (fun _ -> Array.make nw 0);
      live_out = Array.init nb (fun _ -> Array.make nw 0) }
  in
  let use_def = Array.map (block_use_def t) blocks in
  let succs =
    Array.map
      (fun (b : Ir.block) ->
        Array.of_list (List.map (Hashtbl.find index) (Ir.successors b.Ir.b_term)))
      blocks
  in
  (* The least fixpoint is unique, so the visiting order only affects
     speed: reverse layout order converges fast on mostly-forward CFGs. *)
  let changed = ref true in
  while !changed do
    changed := false;
    for k = nb - 1 downto 0 do
      let out = t.live_out.(k) and inn = t.live_in.(k) in
      let use, def = use_def.(k) in
      for w = 0 to nw - 1 do
        let o = Array.fold_left (fun o s -> o lor t.live_in.(s).(w)) 0 succs.(k) in
        let i = use.(w) lor (o land lnot def.(w)) in
        if o <> out.(w) || i <> inn.(w) then begin
          out.(w) <- o;
          inn.(w) <- i;
          changed := true
        end
      done
    done
  done;
  t

let live_in t l = t.live_in.(Hashtbl.find t.index l)
let live_out t l = t.live_out.(Hashtbl.find t.index l)

(* Walk a block backwards; [f] receives the instruction index and the set
   live *after* it.  The set is a scratch copy updated once [f] returns:
   query it inside [f], and take [elements] to keep it. *)
let fold_block_backward t (b : Ir.block) ~init ~f =
  let live = Array.copy (live_out t b.Ir.b_id) in
  List.iter (fun r -> set_bit live (bit t r)) (Ir.uses_of_term b.Ir.b_term);
  let arr = Array.of_list b.Ir.b_insts in
  let acc = ref init in
  for k = Array.length arr - 1 downto 0 do
    let i = arr.(k) in
    acc := f !acc k i live;
    if i.Ir.guard = None then
      List.iter (fun r -> clear_bit live (bit t r)) (Ir.defs_of_inst i);
    List.iter (fun r -> set_bit live (bit t r)) (Ir.uses_of_inst i);
    List.iter (fun r -> set_bit live (bit t r)) (Ir.partial_defs i)
  done;
  !acc

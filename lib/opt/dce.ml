(* Liveness-based dead-code elimination: an instruction with no side
   effect whose definitions are all dead after it is removed.  Iterates to
   a fixed point because removing one dead instruction can kill the
   definitions feeding it. *)

module Ir = Epic_mir.Ir
module Liveness = Epic_mir.Liveness

let run_func (f : Ir.func) =
  let changed = ref true in
  let rounds = ref 0 in
  (* Each round needs a fresh liveness analysis (one dense pass over the
     function); a handful of rounds removes all but pathological dead
     chains, and leftovers are only a code-size cost. *)
  while !changed && !rounds < 6 do
    incr rounds;
    changed := false;
    let live = Liveness.analyse f in
    List.iter
      (fun (b : Ir.block) ->
        let keep =
          Liveness.fold_block_backward live b ~init:[] ~f:(fun acc _k i after ->
              let dead =
                (not (Ir.has_side_effect i.Ir.kind))
                && List.for_all
                     (fun d -> not (Liveness.mem live d after))
                     (Ir.defs_of_inst i)
                && Ir.defs_of_inst i <> []
              in
              if dead then begin
                changed := true;
                acc
              end
              else i :: acc)
        in
        b.Ir.b_insts <- keep)
      f.Ir.f_blocks
  done

let run (p : Ir.program) =
  List.iter run_func p.Ir.p_funcs;
  p

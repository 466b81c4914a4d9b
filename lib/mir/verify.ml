(* MIR well-formedness verifier, run between optimisation passes (under
   the pipeline's [~verify] flag) and by the test suite.  It subsumes the
   structural checks of {!Ir.validate_program} and adds the dataflow
   invariants a pass can silently break:

   - block ids unique within a function, at least one block, the entry
     block first in layout order;
   - every branch target resolves to a block of the same function;
   - every vreg/preg index (uses, defs, guards, parameters) lies within
     [f_nvregs]/[f_npregs];
   - frame accesses stay inside [f_frame_bytes];
   - calls resolve to a function of the program with matching arity;
   - global names unique and initialisers no larger than the allocation;
   - operands are defined where required: a forward must-be-defined
     dataflow over both register classes flags any use that some path
     reaches without a prior definition.  A guarded (predicated)
     definition counts as defining — if-conversion turns the control
     dependence that made the definition conditional into a data
     dependence on the predicate, and the verifier follows that reading.
     Function parameters and the hardwired predicate q0 are defined on
     entry.

   Errors are reported as human-readable strings, every finding at once
   (the pipeline wants one actionable report per pass, not the first
   failure). *)

module RSet = Set.Make (struct
  type t = Ir.rclass * int

  let compare = compare
end)

(* [None] stands for "all registers defined" (top), the starting value of
   the must-analysis on not-yet-visited blocks. *)
type fact = RSet.t option

let meet (a : fact) (b : fact) =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (RSet.inter a b)

let fact_mem r = function None -> true | Some s -> RSet.mem r s

(* Structural compare is unreliable on sets (equal sets, different tree
   shapes), so the fixpoint needs real set equality. *)
let fact_equal (a : fact) (b : fact) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> RSet.equal a b
  | None, Some _ | Some _, None -> false

let reg_name (c, r) =
  match (c : Ir.rclass) with
  | Ir.Cgpr -> Printf.sprintf "v%d" r
  | Ir.Cpred -> Printf.sprintf "q%d" r

(* ------------------------------------------------------------------ *)

let func_errors (f : Ir.func) =
  let errs = ref [] in
  let err fmt =
    Format.kasprintf (fun s -> errs := (f.Ir.f_name ^ ": " ^ s) :: !errs) fmt
  in
  let labels = List.map (fun (b : Ir.block) -> b.Ir.b_id) f.Ir.f_blocks in
  if f.Ir.f_blocks = [] then err "no blocks"
  else begin
    if List.length (List.sort_uniq compare labels) <> List.length labels then
      err "duplicate block ids";
    (* Parameters must be valid, distinct vregs. *)
    List.iter
      (fun p ->
        if p < 0 || p >= f.Ir.f_nvregs then
          err "parameter v%d outside f_nvregs=%d" p f.Ir.f_nvregs)
      f.Ir.f_params;
    if
      List.length (List.sort_uniq compare f.Ir.f_params)
      <> List.length f.Ir.f_params
    then err "duplicate parameters";
    if f.Ir.f_npregs < 1 then err "f_npregs=%d leaves no hardwired q0" f.Ir.f_npregs;
    if f.Ir.f_frame_bytes < 0 then err "negative frame size %d" f.Ir.f_frame_bytes;
    let check_reg where (cls, r) =
      let limit =
        match (cls : Ir.rclass) with
        | Ir.Cgpr -> f.Ir.f_nvregs
        | Ir.Cpred -> f.Ir.f_npregs
      in
      if r < 0 || r >= limit then
        err "L%d: register %s out of range (limit %d)" where (reg_name (cls, r))
          limit
    in
    let check_frame where off bytes =
      if off < 0 || off + bytes > max 0 f.Ir.f_frame_bytes then
        err "L%d: frame access [%d..%d) outside frame of %d bytes" where off
          (off + bytes) f.Ir.f_frame_bytes
    in
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun t ->
            if not (List.mem t labels) then
              err "L%d: branch target L%d does not resolve" b.Ir.b_id t)
          (Ir.successors b.Ir.b_term);
        List.iter
          (fun (i : Ir.inst) ->
            List.iter (check_reg b.Ir.b_id) (Ir.uses_of_inst i);
            List.iter (check_reg b.Ir.b_id) (Ir.defs_of_inst i);
            match i.Ir.kind with
            | Ir.FrameAddr (_, off) -> check_frame b.Ir.b_id off 0
            | Ir.LoadFrame (_, off) | Ir.StoreFrame (off, _) ->
              check_frame b.Ir.b_id off 4
            | _ -> ())
          b.Ir.b_insts;
        List.iter (check_reg b.Ir.b_id) (Ir.uses_of_term b.Ir.b_term))
      f.Ir.f_blocks;
    (* Defined-before-use dataflow.  Run only on otherwise-sound CFGs: the
       fixpoint below indexes blocks by id and would crash on dangling
       targets already reported above. *)
    if !errs = [] then begin
      let base =
        List.fold_left
          (fun s p -> RSet.add (Ir.Cgpr, p) s)
          (RSet.singleton (Ir.Cpred, 0))
          f.Ir.f_params
      in
      let entry = (Ir.entry_block f).Ir.b_id in
      let out_facts : (Ir.label, fact) Hashtbl.t = Hashtbl.create 16 in
      List.iter (fun l -> Hashtbl.replace out_facts l None) labels;
      let preds : (Ir.label, Ir.label list) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun s ->
              Hashtbl.replace preds s
                (b.Ir.b_id :: Option.value ~default:[] (Hashtbl.find_opt preds s)))
            (Ir.successors b.Ir.b_term))
        f.Ir.f_blocks;
      let in_fact (b : Ir.block) : fact =
        (* The entry is reached from outside with only the base set
           defined, whatever back edges also lead to it. *)
        if b.Ir.b_id = entry then Some base
        else
          List.fold_left
            (fun acc p -> meet acc (Hashtbl.find out_facts p))
            None
            (Option.value ~default:[] (Hashtbl.find_opt preds b.Ir.b_id))
      in
      let transfer ?on_use (b : Ir.block) (fact : fact) : fact =
        let use where rs fact =
          (match on_use with
           | Some report ->
             List.iter (fun r -> if not (fact_mem r fact) then report where r) rs
           | None -> ());
          fact
        in
        let def rs fact =
          match fact with
          | None -> None
          | Some s -> Some (List.fold_left (fun s r -> RSet.add r s) s rs)
        in
        let fact =
          List.fold_left
            (fun fact (i : Ir.inst) ->
              fact
              |> use b.Ir.b_id (Ir.uses_of_inst i)
              |> def (Ir.defs_of_inst i))
            fact b.Ir.b_insts
        in
        use b.Ir.b_id (Ir.uses_of_term b.Ir.b_term) fact
      in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (b : Ir.block) ->
            let out = transfer b (in_fact b) in
            if not (fact_equal out (Hashtbl.find out_facts b.Ir.b_id)) then begin
              Hashtbl.replace out_facts b.Ir.b_id out;
              changed := true
            end)
          f.Ir.f_blocks
      done;
      (* Report uses against the converged facts, deduplicated. *)
      let seen = Hashtbl.create 16 in
      let report where r =
        if not (Hashtbl.mem seen (where, r)) then begin
          Hashtbl.replace seen (where, r) ();
          err "L%d: %s may be used before definition" where (reg_name r)
        end
      in
      List.iter
        (fun (b : Ir.block) -> ignore (transfer ~on_use:report b (in_fact b)))
        f.Ir.f_blocks
    end
  end;
  List.rev !errs

let program_errors (p : Ir.program) =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let gnames = List.map (fun (g : Ir.global) -> g.Ir.g_name) p.Ir.p_globals in
  if List.length (List.sort_uniq compare gnames) <> List.length gnames then
    err "duplicate global names";
  List.iter
    (fun (g : Ir.global) ->
      if g.Ir.g_bytes <= 0 then err "global %s has size %d" g.Ir.g_name g.Ir.g_bytes;
      if 4 * Array.length g.Ir.g_init > (g.Ir.g_bytes + 3) land lnot 3 then
        err "global %s: initialiser larger than allocation" g.Ir.g_name)
    p.Ir.p_globals;
  let fnames = List.map (fun (f : Ir.func) -> f.Ir.f_name) p.Ir.p_funcs in
  if List.length (List.sort_uniq compare fnames) <> List.length fnames then
    err "duplicate function names";
  (* Call sites resolve with matching arity. *)
  List.iter
    (fun (f : Ir.func) ->
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun (i : Ir.inst) ->
              match i.Ir.kind with
              | Ir.Call (_, g, args) ->
                (match Ir.find_func p g with
                 | None -> err "%s: L%d: call to undefined function %s" f.Ir.f_name b.Ir.b_id g
                 | Some callee ->
                   if List.length args <> List.length callee.Ir.f_params then
                     err "%s: L%d: call to %s with %d arguments (expects %d)"
                       f.Ir.f_name b.Ir.b_id g (List.length args)
                       (List.length callee.Ir.f_params))
              | _ -> ())
            b.Ir.b_insts)
        f.Ir.f_blocks)
    p.Ir.p_funcs;
  List.rev !errs @ List.concat_map func_errors p.Ir.p_funcs

let check_program (p : Ir.program) =
  match program_errors p with [] -> Ok () | errs -> Error errs

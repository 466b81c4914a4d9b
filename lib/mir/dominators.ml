(* Dominator analysis and natural-loop discovery on MIR CFGs, used by
   loop-invariant code motion once per hoisting round.

   Immediate dominators come from the Cooper-Harvey-Kennedy iteration
   over reverse postorder ("A Simple, Fast Dominance Algorithm", 2001).
   Numbering the dominator tree in pre- and postorder then answers
   [dominates] in O(1): [a] dominates [b] iff [b]'s tree interval nests
   inside [a]'s.  Only blocks reachable from the entry are in the tree;
   [dominates a b] is false whenever [a] or [b] is unreachable, so no
   back edge, and hence no loop header, lies in unreachable code.  A
   loop body can still contain an unreachable block that branches into
   it: the body is every block that reaches the latch without passing
   the header. *)

module LSet = Set.Make (Int)

type t = {
  preds : (Ir.label, Ir.label list) Hashtbl.t;
  number : (Ir.label, int) Hashtbl.t;  (* reachable label -> tree node *)
  pre : int array;                     (* tree node -> preorder number *)
  post : int array;                    (* tree node -> postorder number *)
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
  let preds = predecessors f in
  let succs = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) -> Hashtbl.replace succs b.Ir.b_id (Ir.successors b.Ir.b_term))
    f.Ir.f_blocks;
  (* Depth-first postorder of the blocks reachable from the entry: node k
     is the k-th block to finish, so the entry is the last node. *)
  let number = Hashtbl.create 16 in
  let order = ref [] and n = ref 0 in
  let rec dfs l =
    Hashtbl.replace number l (-1);
    List.iter (fun s -> if not (Hashtbl.mem number s) then dfs s) (Hashtbl.find succs l);
    Hashtbl.replace number l !n;
    order := l :: !order;
    incr n
  in
  dfs (Ir.entry_block f).Ir.b_id;
  let n = !n in
  let rpo = Array.of_list !order in      (* reverse postorder: entry first *)
  let entry = n - 1 in
  let idom = Array.make n (-1) in
  idom.(entry) <- entry;
  let rec intersect a b =
    if a = b then a
    else if a < b then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = 1 to n - 1 do
      let b = Hashtbl.find number rpo.(k) in
      let next =
        List.fold_left
          (fun acc p ->
            match Hashtbl.find_opt number p with
            | Some p when idom.(p) >= 0 -> if acc < 0 then p else intersect p acc
            | _ -> acc)
          (-1) (Hashtbl.find preds rpo.(k))
      in
      if next <> idom.(b) then begin
        idom.(b) <- next;
        changed := true
      end
    done
  done;
  (* Number the dominator tree; children before parents in postorder. *)
  let children = Array.make n [] in
  for b = 0 to n - 1 do
    if b <> entry then children.(idom.(b)) <- b :: children.(idom.(b))
  done;
  let pre = Array.make n 0 and post = Array.make n 0 in
  let clock = ref 0 in
  let rec walk b =
    pre.(b) <- !clock;
    incr clock;
    List.iter walk children.(b);
    post.(b) <- !clock;
    incr clock
  in
  walk entry;
  { preds; number; pre; post }

let dominates t a b =
  match (Hashtbl.find_opt t.number a, Hashtbl.find_opt t.number b) with
  | Some a, Some b -> t.pre.(a) <= t.pre.(b) && t.post.(b) <= t.post.(a)
  | _ -> false

(* Back edges: u -> h where h dominates u. *)
let back_edges t (f : Ir.func) =
  List.concat_map
    (fun (b : Ir.block) ->
      List.filter_map
        (fun s -> if dominates t s b.Ir.b_id then Some (b.Ir.b_id, s) else None)
        (Ir.successors b.Ir.b_term))
    f.Ir.f_blocks

(* The natural loop of back edge (u, h): h plus every node that reaches u
   without passing through h.  Loops sharing a header are merged. *)
type loop = { header : Ir.label; body : LSet.t }

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
      let prev =
        Option.value ~default:LSet.empty (Hashtbl.find_opt by_header h)
      in
      Hashtbl.replace by_header h (LSet.union prev !body))
    (back_edges t f);
  Hashtbl.fold (fun header body acc -> { header; body } :: acc) by_header []

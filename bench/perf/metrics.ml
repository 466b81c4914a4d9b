(* The benchmark's metric registry: every metric's name, unit, direction
   and — for end-to-end metrics — the bound by which it may worsen before
   a change counts as a regression.  BENCHMARK.json at the repository
   root must list the same metrics; [check_manifest] enforces it (the
   runtest rule runs it). *)

type better = Lower | Higher

type t = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;   (* end-to-end metrics only *)
  exact : bool;           (* deterministic: compare demands equality *)
}

let e2e ?(exact = false) name unit_ better bound =
  { name; unit_; better; bound = Some bound; exact }

let layer name unit_ better = { name; unit_; better; bound = None; exact = false }

(* One "op" is the workload's unit of work and one "call" is one request
   a user waits for; README.md has the per-workload definitions and the
   spreads the bounds were set from. *)
let end_to_end =
  [ e2e "setup_s" "s" Lower 0.25;
    e2e "ops_per_s" "1/s" Higher 0.15;
    e2e "call_p50_ms" "ms" Lower 0.25;
    e2e "call_p90_ms" "ms" Lower 0.20;
    e2e "peak_rss_mb" "MB" Lower 0.25;
    e2e ~exact:true "epic_cycles_geomean" "cycles" Lower 0.001;
    e2e ~exact:true "code_words" "words" Lower 0.02 ]

let programs = [ "sha"; "aes"; "dct"; "dijkstra"; "sha256c" ]

let opt_passes =
  [ "simplify-cfg"; "inline"; "constfold"; "cse"; "licm"; "dce"; "if-convert" ]

let per_layer =
  [ layer "cfront.ms" "ms" Lower; layer "cfront.insts_out" "count" Lower ]
  @ List.map (fun p -> layer ("opt." ^ p ^ ".ms") "ms" Lower) opt_passes
  @ [ layer "opt.insts_out" "count" Lower;
      layer "regalloc.ms" "ms" Lower;
      layer "regalloc.spills" "count" Lower;
      layer "codegen.ms" "ms" Lower;
      layer "sched.ms" "ms" Lower;
      layer "sched.bundles" "count" Lower;
      layer "asm.ms" "ms" Lower;
      layer "asm.words" "count" Lower;
      layer "predecode.ms" "ms" Lower ]
  @ List.map (fun p -> layer ("compile." ^ p ^ ".ms") "ms" Lower) programs
  @ [ layer "sim.fast.ms_per_mcyc" "ms/Mcyc" Lower;
      layer "sim.cycles" "count" Lower;
      layer "sim.operand_stalls" "count" Lower;
      layer "sim.branch_bubbles" "count" Lower;
      layer "fault.golden.ms" "ms" Lower;
      layer "fault.inject.ms_p50" "ms" Lower;
      layer "fault.inject.ms_p99" "ms" Lower;
      layer "exec.pool_map.us" "us" Lower;
      layer "exec.workq_submit.us" "us" Lower;
      layer "explore.prepare.ms" "ms" Lower;
      layer "explore.evaluate.ms_p50" "ms" Lower;
      layer "pareto.add.us" "us" Lower;
      layer "explore.evaluated" "count" Lower;
      layer "explore.pruned" "count" Higher;
      layer "explore.invalid" "count" Lower;
      layer "explore.errors" "count" Lower;
      layer "protocol.parse.us" "us" Lower;
      layer "protocol.serialise.us" "us" Lower;
      layer "store.find_hit.us" "us" Lower;
      layer "store.find_miss.us" "us" Lower;
      layer "store.add.us" "us" Lower;
      layer "serve.disk_hit_frac" "fraction" Higher;
      layer "serve.dedup_hits" "count" Higher;
      layer "serve.queue_depth_max" "count" Lower;
      layer "serve.daemon_p50_ms" "ms" Lower;
      layer "serve.compile.p50_ms" "ms" Lower;
      layer "serve.simulate.p50_ms" "ms" Lower;
      layer "serve.fault.p50_ms" "ms" Lower;
      layer "serve.explore.p50_ms" "ms" Lower;
      layer "trace.overhead_frac" "fraction" Lower ]

let all = end_to_end @ per_layer

let find name = List.find_opt (fun m -> m.name = name) all

let string_of_better = function Lower -> "lower" | Higher -> "higher"

let pp_list oc =
  List.iter
    (fun m ->
      Printf.fprintf oc "%-11s %-26s %-9s %-6s%s\n"
        (if m.bound = None then "per_layer" else "end_to_end")
        m.name m.unit_ (string_of_better m.better)
        (match m.bound with
         | Some b -> Printf.sprintf " bound %g%s" b (if m.exact then " exact" else "")
         | None -> ""))
    all

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json consistency *)

module J = Epic.Profile.Json

let check_manifest ~workloads path =
  let fail fmt = Printf.ksprintf failwith fmt in
  let doc =
    match J.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> fail "%s: %s" path e
  in
  let list key =
    match J.member key doc with
    | Some (J.List l) -> l
    | _ -> fail "%s: missing list %S" path key
  in
  let str key j =
    match J.member key j with
    | Some (J.Str s) -> s
    | _ -> fail "%s: entry without string %S" path key
  in
  let num key j =
    match J.member key j with
    | Some (J.Int i) -> float_of_int i
    | Some (J.Float f) -> f
    | _ -> fail "%s: entry without number %S" path key
  in
  let expect what got want =
    if got <> want then
      fail "%s: %s are [%s], epicbench has [%s]" path what
        (String.concat "; " got) (String.concat "; " want)
  in
  let row m =
    Printf.sprintf "%s %s %s%s" m.name m.unit_ (string_of_better m.better)
      (match m.bound with Some b -> Printf.sprintf " %g" b | None -> "")
  in
  expect "end_to_end metrics"
    (List.map
       (fun j ->
         Printf.sprintf "%s %s %s %g" (str "name" j) (str "unit" j)
           (str "better" j) (num "bound" j))
       (list "end_to_end"))
    (List.map row end_to_end);
  expect "per_layer metrics"
    (List.map
       (fun j -> Printf.sprintf "%s %s %s" (str "name" j) (str "unit" j) (str "better" j))
       (list "per_layer"))
    (List.map row per_layer);
  expect "workloads" (List.map (str "name") (list "workloads")) workloads

(* The traced run: each layer's public function called by the benchmark
   itself inside a span, then reduced to per-layer metrics.  Times are
   self times — a span's duration less its children's — averaged per
   call of the unit named in the metric. *)

module T = Epic.Toolchain
module Config = Epic.Config
module Sim = Epic.Sim
module E = Epic.Experiments
module C = Epic_explore.Campaign
module P = Epic_serve.Protocol
module Store = Epic_serve.Store
module Codegen = Epic.Sched.Codegen
module W = Workloads
module I = Inputs

let span = Spans.with_span

(* Counts the compile layers produce, summed over the traced compiles. *)
let front_insts = ref 0
let spills = ref 0

let insts p = (Epic.Opt.Pipeline.shape p).Epic.Opt.Pipeline.sh_insts

(* [Toolchain.compile_epic] taken apart at its layer boundaries, in its
   own order, without the compile cache.  The allocator runs twice: once
   on its own, to time it and count spills (it does not mutate its
   input), and once inside code generation, whose time is reported net
   of it.  The result must encode to the same words as compile_epic. *)
let compile cfg source =
  let cfg = Config.validate_exn cfg in
  let mir = span "cfront" (fun () -> Epic.Cfront.compile ~unroll:T.default_unroll source) in
  front_insts := !front_insts + insts mir;
  let mir =
    List.fold_left
      (fun p (pass : Epic.Opt.pass) ->
        span ("opt." ^ pass.Epic.Opt.pass_name) (fun () -> pass.Epic.Opt.pass_run p))
      (Epic.Opt.Common.copy_program mir)
      (Epic.Opt.default_passes ~epic:true ~predication:true)
  in
  let layout = Epic.Memmap.layout mir in
  let pool = List.init (cfg.Config.n_gprs - Codegen.pool_base) (fun k -> Codegen.pool_base + k) in
  List.iter
    (fun f ->
      let ra = span "regalloc" (fun () -> Epic.Regalloc.allocate f ~pool) in
      spills := !spills + ra.Epic.Regalloc.spill_count)
    mir.Epic.Ir.p_funcs;
  let cfuncs = span "codegen" (fun () -> Codegen.gen_program cfg layout mir) in
  let unit_, sched =
    span "sched" (fun () -> Epic.Sched.Sched.schedule_program (Epic.Mdes.of_config cfg) cfuncs)
  in
  let image, words = span "asm" (fun () -> Epic.Asm.assemble cfg unit_) in
  let pre = span "predecode" (fun () -> Sim.Predecode.of_image cfg image) in
  { T.ea_config = cfg; ea_mir = mir; ea_layout = layout; ea_unit = unit_;
    ea_image = image; ea_words = words; ea_sched = sched;
    ea_report = Epic.Opt.Pipeline.empty_report; ea_pre = pre }

let traced =
  { W.span = (fun name f -> span ~group:(Spans.new_group ()) name f); compile }

(* ------------------------------------------------------------------ *)
(* Reductions over the spans of one section *)

let ms s = Spans.dur s *. 1000.

let named name ss = List.filter (fun (s : Spans.span) -> s.Spans.sp_name = name) ss

let self_ms ss name =
  List.fold_left
    (fun acc ((s : Spans.span), self) ->
      if s.Spans.sp_name = name then acc +. (self *. 1000.) else acc)
    0. (Spans.self_times ss)

let total_ms ss name = List.fold_left (fun acc s -> acc +. ms s) 0. (named name ss)

(* Spans recorded while [f] runs. *)
let section f =
  let before = List.length (Spans.spans ()) in
  let v = f () in
  (v, List.filteri (fun i _ -> i >= before) (Spans.spans ()))

(* Time [n] repetitions of [f] inside one span each and return the median
   per-repetition time of [k] calls in microseconds; calls of a few
   microseconds are batched so the span's own cost does not swamp them. *)
let per_call_us name ~n ~k f =
  let _, ss = section (fun () -> for _ = 1 to n do span name f done) in
  Summary.median (List.map (fun s -> Spans.dur s *. 1e6 /. float_of_int k) ss)

(* ------------------------------------------------------------------ *)
(* The sections *)

let compile_layers (ctx : W.ctx) =
  let progs = I.corpus ~root:ctx.W.root E.default_sizes in
  List.iter
    (fun (p : I.program) -> ignore (T.compile_epic Config.default ~source:p.I.source ()))
    progs;
  let cfgs = I.sample_configs ~seed:ctx.W.seed (if ctx.W.quick then 1 else 4) in
  front_insts := 0;
  spills := 0;
  let opt_insts = ref 0 and bundles = ref 0 and words = ref 0 in
  let per_prog = Hashtbl.create 8 in
  let (), ss =
    section (fun () ->
        List.iter
          (fun cfg ->
            List.iter
              (fun (p : I.program) ->
                let a, root =
                  section (fun () -> traced.W.span "compile" (fun () -> compile cfg p.I.source))
                in
                let direct = T.compile_epic cfg ~source:p.I.source () in
                Oracle.check
                  (a.T.ea_words = direct.T.ea_words)
                  "traced compile of %s encodes differently from compile_epic" p.I.name;
                let r = T.run_epic a in
                Oracle.check (r.Sim.ret = p.I.expected)
                  "traced compile of %s returned %#x, expected %#x" p.I.name r.Sim.ret
                  p.I.expected;
                opt_insts := !opt_insts + insts a.T.ea_mir;
                bundles := !bundles + a.T.ea_sched.Epic.Sched.Sched.st_bundles;
                words := !words + Array.length a.T.ea_words;
                let net = total_ms root "compile" -. total_ms root "regalloc" in
                Hashtbl.replace per_prog p.I.name
                  (net :: Option.value ~default:[] (Hashtbl.find_opt per_prog p.I.name)))
              progs)
          cfgs)
  in
  let n = float_of_int (List.length cfgs * List.length progs) in
  let per name = self_ms ss name /. n in
  [ ("cfront.ms", per "cfront"); ("cfront.insts_out", float_of_int !front_insts) ]
  @ List.map (fun p -> ("opt." ^ p ^ ".ms", per ("opt." ^ p))) Metrics.opt_passes
  @ [ ("opt.insts_out", float_of_int !opt_insts);
      ("regalloc.ms", per "regalloc");
      ("regalloc.spills", float_of_int !spills);
      ("codegen.ms", (total_ms ss "codegen" -. total_ms ss "regalloc") /. n);
      ("sched.ms", per "sched");
      ("sched.bundles", float_of_int !bundles);
      ("asm.ms", per "asm");
      ("asm.words", float_of_int !words);
      ("predecode.ms", per "predecode") ]
  @ List.map
      (fun name ->
        ( "compile." ^ name ^ ".ms",
          Summary.mean (Option.value ~default:[] (Hashtbl.find_opt per_prog name)) ))
      Metrics.programs

let sim_layer () =
  let cache = T.Compile_cache.create () in
  let arts =
    List.concat_map
      (fun (p : I.program) ->
        List.map
          (fun n -> T.compile_epic ~cache (Config.with_alus n) ~source:p.I.source ())
          E.alu_sweep)
      (I.kernels E.default_sizes)
  in
  let stats, ss =
    section (fun () ->
        List.concat_map
          (fun _ -> List.map (fun a -> (span "sim.fast" (fun () -> T.run_epic a)).Sim.stats) arts)
          [ 1; 2 ])
  in
  let sum f = float_of_int (List.fold_left (fun acc st -> acc + f st) 0 stats) in
  let cycles = sum (fun st -> st.Sim.cycles) in
  [ ("sim.fast.ms_per_mcyc", total_ms ss "sim.fast" /. (cycles /. 1e6));
    ("sim.cycles", cycles /. 2.);
    ("sim.operand_stalls", sum (fun st -> st.Sim.operand_stalls) /. 2.);
    ("sim.branch_bubbles", sum (fun st -> st.Sim.branch_bubbles) /. 2.) ]

(* Replay a campaign's fault list one injection at a time: each outcome
   must match the campaign's classification. *)
let fault_layer (ctx : W.ctx) =
  let p = List.hd (I.kernels E.default_sizes) in
  let a = T.compile_epic Config.default ~source:p.I.source () in
  let runs = if ctx.W.quick then 4 else 40 in
  let seed = I.derived_seed (I.rng ~seed:ctx.W.seed ~salt:7) in
  let rp = T.fault_campaign ~seed ~runs ~jobs:1 a in
  let cfg = a.T.ea_config and image = a.T.ea_image and pre = a.T.ea_pre in
  let mem = Epic.Memmap.init_memory a.T.ea_layout a.T.ea_mir in
  let entry = Option.value ~default:0 (List.assoc_opt "_start" image.Epic.Asm.Aunit.im_symbols) in
  let (), ss =
    section (fun () ->
        let g = span "fault.golden" (fun () -> Epic.Fault.golden ~pre cfg ~image ~mem ~entry) in
        List.iter
          (fun (f, outcome) ->
            let o =
              traced.W.span "fault.inject" (fun () ->
                  Epic.Fault.inject ~pre cfg ~image ~mem ~entry ~fuel:rp.Epic.Fault.rp_fuel
                    ~golden_ret:g.Sim.ret ~golden_mem:g.Sim.mem f)
            in
            Oracle.check (o = outcome) "fault: %s replayed as %s, the campaign said %s"
              (Format.asprintf "%a" Epic.Fault.pp_fault f)
              (Epic.Fault.string_of_outcome o) (Epic.Fault.string_of_outcome outcome))
          rp.Epic.Fault.rp_faults)
  in
  let inject = List.map ms (named "fault.inject" ss) in
  [ ("fault.golden.ms", total_ms ss "fault.golden");
    ("fault.inject.ms_p50", Summary.percentile inject 50.);
    ("fault.inject.ms_p99", Summary.percentile inject 99.) ]

let exec_layer () =
  let pool_map =
    per_call_us "exec.pool_map" ~n:200 ~k:1 (fun () ->
        ignore (Epic.Exec.Pool.map ~jobs:2 (fun () -> ()) [ (); () ]))
  in
  let q = Epic.Exec.Workq.create ~jobs:2 () in
  let mu = Mutex.create () and cv = Condition.create () in
  let submit () =
    let fin = ref false in
    Epic.Exec.Workq.submit q (fun () ->
        Mutex.lock mu;
        fin := true;
        Condition.signal cv;
        Mutex.unlock mu);
    Mutex.lock mu;
    while not !fin do Condition.wait cv mu done;
    Mutex.unlock mu
  in
  let workq =
    Fun.protect ~finally:(fun () -> Epic.Exec.Workq.shutdown q) (fun () ->
        per_call_us "exec.workq_submit" ~n:500 ~k:1 submit)
  in
  [ ("exec.pool_map.us", pool_map); ("exec.workq_submit.us", workq) ]

let explore_layer (ctx : W.ctx) =
  let bms = I.benchmarks I.small_sizes in
  let o = { C.default_options with C.o_workloads = bms; o_jobs = 2 } in
  let ws, ss =
    section (fun () ->
        List.map
          (fun bm -> span "explore.prepare" (fun () -> C.prepare ~max_cands:3 ~max_ops:3 bm))
          bms)
  in
  let r = I.rng ~seed:ctx.W.seed ~salt:8 in
  let grid = C.grid o ws in
  let points =
    List.filter_map
      (fun i ->
        let p = grid.(i) in
        let w = List.find (fun w -> w.C.w_bm.Epic.Workloads.Sources.bm_name = p.C.p_workload) ws in
        if Config.validate (C.config_of w p) = Ok () then Some (w, p) else None)
      (List.init (if ctx.W.quick then 8 else 48) (fun _ -> I.below r (Array.length grid)))
  in
  let evals, ess =
    section (fun () ->
        List.map (fun (w, p) -> span "explore.evaluate" (fun () -> C.evaluate w p)) points)
  in
  let pts =
    List.filter_map
      (fun (e : C.eval) ->
        match e.C.e_outcome with
        | C.Measured cycles ->
          Some { Epic_explore.Pareto.pt_cost = e.C.e_slices;
                 pt_time = C.time_ms ~cycles ~clock:e.C.e_clock; pt_data = e }
        | C.Failed _ -> None)
      evals
  in
  let folds = 200 in
  let add_us =
    per_call_us "pareto.add" ~n:20 ~k:(folds * max 1 (List.length pts)) (fun () ->
        for _ = 1 to folds do
          ignore
            (List.fold_left
               (fun a p -> fst (Epic_explore.Pareto.add a p))
               Epic_explore.Pareto.empty pts)
        done)
  in
  let budget = if ctx.W.quick then 32 else 200 in
  let res =
    span "explore.campaign" (fun () ->
        C.run { o with C.o_budget = budget; o_seed = I.derived_seed r })
  in
  let c = res.C.r_counts in
  [ ("explore.prepare.ms", total_ms ss "explore.prepare");
    ("explore.evaluate.ms_p50", Summary.median (List.map ms (named "explore.evaluate" ess)));
    ("pareto.add.us", add_us);
    ("explore.evaluated", float_of_int c.C.c_evaluated);
    ("explore.pruned", float_of_int c.C.c_pruned);
    ("explore.invalid", float_of_int c.C.c_invalid);
    ("explore.errors", float_of_int c.C.c_errors) ]

let serve_layers (ctx : W.ctx) =
  let reqs = I.serve_mix ~seed:ctx.W.seed 200 in
  let lines = List.map (fun (rq : I.request) -> rq.I.rq_line) reqs in
  let k = List.length lines in
  let parsed = List.map (fun l -> Result.get_ok (P.request_of_line l)) lines in
  let parse_us =
    per_call_us "protocol.parse" ~n:20 ~k (fun () ->
        List.iter (fun l -> ignore (P.request_of_line l)) lines)
  in
  let serialise_us =
    per_call_us "protocol.serialise" ~n:20 ~k (fun () ->
        List.iter (fun r -> ignore (P.to_line r)) parsed)
  in
  let st = Store.open_ (W.fresh_dir ctx "layer-store") in
  let payload = String.make 1024 'x' in
  let keys prefix = List.init k (fun i -> Printf.sprintf "%s|%d" prefix i) in
  let round = ref 0 in
  let add_us =
    per_call_us "store.add" ~n:3 ~k (fun () ->
        incr round;
        List.iter (fun key -> Store.add st ~key payload) (keys (string_of_int !round)))
  in
  let hit_us =
    per_call_us "store.find_hit" ~n:5 ~k (fun () ->
        List.iter
          (fun key -> Oracle.check (Store.find st ~key = Some payload) "store: lost %s" key)
          (keys "1"))
  in
  let miss_us =
    per_call_us "store.find_miss" ~n:5 ~k (fun () ->
        List.iter
          (fun key -> Oracle.check (Store.find st ~key = None) "store: found %s" key)
          (keys "absent"))
  in
  let session = W.serve ~n:(if ctx.W.quick then 20 else 60) ctx traced in
  [ ("protocol.parse.us", parse_us);
    ("protocol.serialise.us", serialise_us);
    ("store.find_hit.us", hit_us);
    ("store.find_miss.us", miss_us);
    ("store.add.us", add_us) ]
  @ session.W.extra

(* Tracing overhead of one workload: the same reduced-size work untraced,
   then traced, as time per op.  Returns the two runs' calls as well. *)
let overhead (ctx : W.ctx) (w : W.workload) =
  let small = { ctx with W.seconds = Float.max 1. (ctx.W.seconds *. 0.2) } in
  let per_op (o : W.outcome) =
    List.fold_left (fun a (s : W.sample) -> a +. s.W.busy_s) 0. o.W.samples
    /. List.fold_left (fun a (s : W.sample) -> a +. s.W.ops) 0. o.W.samples
  in
  let plain = w.W.run small W.direct in
  let spanned = w.W.run small traced in
  ( ("trace.overhead_frac", (per_op spanned /. per_op plain) -. 1.),
    plain.W.attempted + spanned.W.attempted,
    plain.W.failed + spanned.W.failed )

(* Every per-layer metric, in registry order, with the calls the
   workload's traced and untraced probes attempted and failed. *)
let run (ctx : W.ctx) (w : W.workload) ~trace_file =
  Spans.reset ();
  let overhead, attempted, failed = overhead ctx w in
  let metrics =
    compile_layers ctx @ sim_layer () @ fault_layer ctx @ exec_layer () @ explore_layer ctx
    @ serve_layers ctx @ [ overhead ]
  in
  Spans.write_chrome trace_file (Spans.spans ());
  ( List.map
      (fun (m : Metrics.t) ->
        match List.assoc_opt m.Metrics.name metrics with
        | Some v -> (m.Metrics.name, v)
        | None -> failwith ("epicbench: no value for " ^ m.Metrics.name))
      Metrics.per_layer,
    attempted,
    failed )

(* The five workloads.  Each sets up three times (set-up time is the
   median), then does a fixed amount of work sized from [--seconds] on
   the reference host, timing every call a user would wait for and
   checking every output.  Why each workload exists is in [all] below
   and in README.md. *)

module T = Epic.Toolchain
module Config = Epic.Config
module Sim = Epic.Sim
module E = Epic.Experiments
module C = Epic_explore.Campaign
module J = Epic.Profile.Json
module I = Inputs

type ctx = {
  seed : int;
  seconds : float;   (* work is sized to take about this long *)
  quick : bool;      (* tiny inputs: a smoke test of every path and check *)
  root : string;     (* repository root: examples/ and expected.json *)
  work : string;     (* scratch directory: stores, the socket, logs *)
  epicd : string;
  expected : Oracle.t;
}

(* How calls into the program are made: directly in the measured run;
   inside a span, with compiles split into their layers, in the traced
   run. *)
type hooks = {
  span : 'a. string -> (unit -> 'a) -> 'a;
  compile : Config.t -> string -> T.epic_artifacts;
}

let direct =
  { span = (fun _ f -> f ());
    compile = (fun cfg source -> T.compile_epic cfg ~source ()) }

(* One measurement of a workload's timed work. *)
type sample = {
  lat_ms : float list;     (* one per call *)
  ops : float;             (* units of work completed *)
  busy_s : float;          (* time the calls took *)
  rss_mb : float option;   (* serve: the daemon's peak; otherwise ours *)
}

type outcome = {
  setups : float list;     (* seconds, one per set-up *)
  samples : sample list;   (* serve measures after each set-up; the rest once *)
  attempted : int;
  failed : int;
  extra : (string * float) list;  (* serve: daemon counters for the trace *)
}

let time f =
  let t0 = Spans.now () in
  let v = f () in
  (v, Spans.now () -. t0)

(* Set up three times; every set-up but the last is thrown away. *)
let set_up f =
  let _, t1 = time f in
  let _, t2 = time f in
  let v3, t3 = time f in
  (v3, [ t1; t2; t3 ])

(* A directory not used before in this process, so that every store the
   benchmark opens starts empty. *)
let fresh_dir =
  let n = ref 0 in
  fun ctx name ->
    incr n;
    Filename.concat ctx.work (Printf.sprintf "%s-%d" name !n)

(* Whole rounds of roughly [round_s] seconds each on the reference host. *)
let rounds ctx ~round_s =
  if ctx.quick then 1 else max 1 (int_of_float (Float.round (ctx.seconds /. round_s)))

type acc = {
  mutable lat : float list;
  mutable work : float;
  mutable busy : float;
  mutable attempted : int;
  mutable failed : int;
}

let new_acc () = { lat = []; work = 0.; busy = 0.; attempted = 0; failed = 0 }

(* Time one call; an exception is a failed call. *)
let timed acc f =
  acc.attempted <- acc.attempted + 1;
  match time f with
  | v, dt ->
    acc.lat <- (dt *. 1000.) :: acc.lat;
    acc.busy <- acc.busy +. dt;
    Some v
  | exception e ->
    acc.failed <- acc.failed + 1;
    Oracle.fail "%s" (Printexc.to_string e);
    None

(* A call whose output is wrong. *)
let bad acc fmt =
  Printf.ksprintf
    (fun m ->
      acc.failed <- acc.failed + 1;
      Oracle.fail "%s" m)
    fmt

let sample ?rss_mb acc = { lat_ms = List.rev acc.lat; ops = acc.work; busy_s = acc.busy; rss_mb }

let finish acc setups =
  { setups; samples = [ sample acc ]; attempted = acc.attempted; failed = acc.failed;
    extra = [] }

(* ------------------------------------------------------------------ *)
(* compile: cold compiles, one domain, no compile cache.  An op is one
   compile; each artifact is then run once, untimed, to check its
   result. *)

(* Cold compiles per second on the reference host: sizes the corpus. *)
let compiles_per_s = 40.

let compile ctx hooks =
  let sizes = if ctx.quick then I.small_sizes else E.default_sizes in
  let n_cfg =
    if ctx.quick then 1
    else max 1 (int_of_float (Float.round (ctx.seconds *. compiles_per_s /. 5.)))
  in
  let items, setups =
    set_up (fun () ->
        let progs = I.corpus ~root:ctx.root sizes in
        List.iter
          (fun (p : I.program) -> ignore (T.compile_epic Config.default ~source:p.I.source ()))
          progs;
        let cfgs = I.sample_configs ~seed:ctx.seed n_cfg in
        I.shuffle (I.rng ~seed:ctx.seed ~salt:2)
          (Array.of_list (List.concat_map (fun p -> List.map (fun c -> (p, c)) cfgs) progs)))
  in
  let acc = new_acc () in
  Array.iter
    (fun ((p : I.program), cfg) ->
      match
        timed acc (fun () -> hooks.span "compile" (fun () -> hooks.compile cfg p.I.source))
      with
      | None -> ()
      | Some a ->
        acc.work <- acc.work +. 1.;
        let r = T.run_epic a in
        if r.Sim.trap <> None || r.Sim.ret <> p.I.expected then
          bad acc "compile: %s returned %#x, expected %#x" p.I.name r.Sim.ret p.I.expected)
    items;
  finish acc setups

(* ------------------------------------------------------------------ *)
(* simulate: the 16 Table-1 points (4 kernels x 1-4 ALUs) at the paper's
   input sizes, compiled during set-up.  An op is a million simulated
   cycles, so ops_per_s is the simulator's Mcyc/s. *)

let simulate ctx hooks =
  let sizes = if ctx.quick then I.small_sizes else E.paper_sizes in
  let points, setups =
    set_up (fun () ->
        let cache = T.Compile_cache.create () in
        List.concat_map
          (fun (p : I.program) ->
            List.map
              (fun n -> (p, n, T.compile_epic ~cache (Config.with_alus n) ~source:p.I.source ()))
              E.alu_sweep)
          (I.kernels sizes)
        |> Array.of_list
        |> I.shuffle (I.rng ~seed:ctx.seed ~salt:3))
  in
  let acc = new_acc () in
  let cycles = Hashtbl.create 16 in
  for _ = 1 to rounds ctx ~round_s:4.0 do
    Array.iter
      (fun ((p : I.program), n, a) ->
        match timed acc (fun () -> hooks.span "simulate" (fun () -> T.run_epic a)) with
        | None -> ()
        | Some r ->
          let c = r.Sim.stats.Sim.cycles in
          acc.work <- acc.work +. (float_of_int c /. 1e6);
          if r.Sim.trap <> None || r.Sim.ret <> p.I.expected then
            bad acc "simulate: %s at %d ALUs returned %#x, expected %#x" p.I.name n
              r.Sim.ret p.I.expected;
          match Hashtbl.find_opt cycles (p.I.name, n) with
          | Some c0 when c0 <> c ->
            bad acc "simulate: %s at %d ALUs took %d cycles, then %d" p.I.name n c0 c
          | _ -> Hashtbl.replace cycles (p.I.name, n) c)
      points
  done;
  if not ctx.quick then
    List.iter
      (fun (p : I.program) ->
        match List.assoc_opt p.I.name ctx.expected.Oracle.table1 with
        | None -> Oracle.fail "expected.json has no Table-1 row for %s" p.I.name
        | Some (checksum, recorded) ->
          Oracle.check (p.I.expected = checksum)
            "Table 1: the %s reference checksum is %#x, expected.json has %#x"
            p.I.name p.I.expected checksum;
          let got =
            List.map
              (fun n -> Option.value ~default:0 (Hashtbl.find_opt cycles (p.I.name, n)))
              E.alu_sweep
          in
          if got <> recorded then
            Oracle.note "paper-size Table-1 cycles of %s are %s; %s were recorded"
              p.I.name
              (String.concat "/" (List.map string_of_int got))
              (String.concat "/" (List.map string_of_int recorded)))
      (I.kernels sizes);
  finish acc setups

(* ------------------------------------------------------------------ *)
(* fault: seeded fault-injection campaigns over the compile corpus at 4
   ALUs, all five targets, fanned out on 2 domains.  An op is one
   injected run; a call is one program's campaign. *)

let fault ctx hooks =
  let sizes = if ctx.quick then I.small_sizes else E.default_sizes in
  let runs = if ctx.quick then 2 else 32 in
  let arts, setups =
    set_up (fun () ->
        List.map
          (fun (p : I.program) -> (p, T.compile_epic Config.default ~source:p.I.source ()))
          (I.corpus ~root:ctx.root sizes))
  in
  let acc = new_acc () in
  let seeds = I.rng ~seed:ctx.seed ~salt:4 in
  let first = ref [] in
  for round = 1 to rounds ctx ~round_s:2.5 do
    let cseed = I.derived_seed seeds in
    List.iter
      (fun ((p : I.program), a) ->
        match
          timed acc (fun () ->
              hooks.span "fault-campaign" (fun () ->
                  T.fault_campaign ~seed:cseed ~runs ~jobs:2 a))
        with
        | None -> ()
        | Some rp ->
          let n = Epic.Fault.total_runs rp in
          acc.work <- acc.work +. float_of_int n;
          if rp.Epic.Fault.rp_golden_ret <> p.I.expected
             || n <> runs * List.length Epic.Fault.all_targets
          then
            bad acc "fault: %s campaign returned %#x over %d runs" p.I.name
              rp.Epic.Fault.rp_golden_ret n;
          if round = 1 then first := (p, a, cseed, rp) :: !first)
      arts
  done;
  let json rp = J.to_string (Epic.Fault.report_to_json ~faults:true rp) in
  (* The report must not depend on the number of domains. *)
  (match List.find_opt (fun ((p : I.program), _, _, _) -> p.I.name = "sha256c") !first with
   | Some (_, a, cseed, rp) ->
     Oracle.check
       (json (T.fault_campaign ~seed:cseed ~runs ~jobs:1 a) = json rp)
       "fault: the sha256c report differs between 1 and 2 domains"
   | None -> ());
  Oracle.drift ctx.expected
    ~key:(Printf.sprintf "fault seed=%d runs=%d quick=%b" ctx.seed runs ctx.quick)
    (Digest.to_hex
       (Digest.string (String.concat "\n" (List.rev_map (fun (_, _, _, rp) -> json rp) !first))));
  finish acc setups

(* ------------------------------------------------------------------ *)
(* explore: design-space campaigns over the [--small] workloads.  Each
   round runs one campaign cold on a fresh store, then replays it warm
   five times, as repeated CI or resumed runs do.  An op is one evaluated
   design point; a call is one campaign.  Warm calls set call_p50_ms and
   cold ones call_p90_ms.

   The campaigns run on one domain, and the workload seed only orders
   them.  Both keep the run steady enough to show a 10% change.  On two
   domains the same 600-point campaign takes either 1.7 s or 2.1 s,
   depending on the host's scheduling; on one its spread is 1.5%.  The
   campaign's sampling seed moves its time by 7% at 400 points, through
   which points it draws and prunes. *)

let explore ctx hooks =
  let budget = if ctx.quick then 48 else 400 in
  let warm = if ctx.quick then 1 else 5 in
  let base, setups =
    set_up (fun () ->
        let o =
          { C.default_options with
            C.o_budget = budget; o_jobs = 1;
            o_workloads = I.benchmarks I.small_sizes }
        in
        ignore (C.run { o with C.o_budget = 16 });
        o)
  in
  let acc = new_acc () in
  let round campaign_seed =
    let o =
      { base with C.o_seed = campaign_seed; o_cache_dir = Some (fresh_dir ctx "explore") }
    in
    let campaign label =
      match timed acc (fun () -> hooks.span label (fun () -> C.run o)) with
      | None -> None
      | Some r ->
        acc.work <- acc.work +. float_of_int r.C.r_counts.C.c_evaluated;
        Some r
    in
    (match campaign "explore-cold" with
     | None -> ()
     | Some cold ->
       let c = cold.C.r_counts in
       let counts =
         Printf.sprintf "evaluated=%d pruned=%d invalid=%d errors=%d"
           c.C.c_evaluated c.C.c_pruned c.C.c_invalid c.C.c_errors
       in
       if c.C.c_evaluated + c.C.c_pruned + c.C.c_invalid <> cold.C.r_sampled then
         bad acc "explore: %s do not add up to %d sampled points" counts
           cold.C.r_sampled;
       Oracle.drift ctx.expected
         ~key:(Printf.sprintf "explore campaign=%d budget=%d" campaign_seed budget)
         counts;
       let doc = J.to_string cold.C.r_doc in
       for _ = 1 to warm do
         match campaign "explore-warm" with
         | None -> ()
         | Some w ->
           if J.to_string w.C.r_doc <> doc then
             bad acc "explore: the warm frontier differs from the cold one";
           let st = Epic_serve.Store.stats (Option.get w.C.r_store) in
           if Epic_serve.Store.hit_rate st < 0.9 then
             bad acc "explore: warm replay hit the store at only %.0f%%"
               (100. *. Epic_serve.Store.hit_rate st)
       done)
  in
  let n = rounds ctx ~round_s:3.5 in
  Array.iter round (I.shuffle (I.rng ~seed:ctx.seed ~salt:6) (Array.init n (fun i -> i + 1)));
  finish acc setups

(* ------------------------------------------------------------------ *)
(* serve: a real epicd (--socket --jobs 2 --max-conns 2, fresh store)
   driven by two closed-loop client threads, one connection each, that
   send the same seeded request stream from a common start.  An op and a
   call are both one request; latency is what the client sees.  Closed
   loop, because epicd's callers (epicload, explore campaigns, CI) each
   wait for a reply before sending the next request.  The same stream,
   because that is how several CI workers or epicload --clients hit one
   daemon, and what exercises in-flight dedup: a new key is computed once
   and shared.  Independent streams on a two-core host make two misses
   compete with the daemon's own threads, and the latencies then spread
   by 11-20% from run to run. *)

let check_reply (rq : I.request) line =
  let num j path =
    match List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) path with
    | Some (J.Int i) -> Some i
    | _ -> None
  in
  match J.parse line with
  | Error e -> Error ("unparseable reply: " ^ e)
  | Ok j -> (
    if J.member "ok" j <> Some (J.Bool true) then Error ("error reply: " ^ line)
    else
      match rq.I.rq_expect with
      | I.Ret want ->
        if num j [ "result"; "ret" ] = Some want then Ok ()
        else Error (Printf.sprintf "expected ret %#x: %s" want line)
      | I.Golden (want, n) ->
        let rows =
          match Option.bind (J.member "result" j) (J.member "rows") with
          | Some (J.List rows) ->
            List.fold_left
              (fun acc r ->
                acc
                + List.fold_left
                    (fun a k -> a + Option.value ~default:0 (num r [ k ]))
                    0 [ "masked"; "sdc"; "trap"; "timeout" ])
              0 rows
          | _ -> -1
        in
        if num j [ "result"; "golden_ret" ] = Some want && rows = n then Ok ()
        else Error (Printf.sprintf "expected golden %#x over %d runs: %s" want n line)
      | I.Points n -> (
        match Option.bind (J.member "result" j) (J.member "points") with
        | Some (J.List pts)
          when List.length pts = n
               && List.for_all
                    (fun p -> match num p [ "cycles" ] with Some c -> c > 0 | None -> false)
                    pts ->
          Ok ()
        | _ -> Error (Printf.sprintf "expected %d measured points: %s" n line)))

(* Per client and session: each session's daemon peaks near 400 MB at
   15 s. *)
let requests_per_s = 110.

(* Three sessions, each on a daemon freshly set up, so set-up is measured
   three times as in every workload and each metric is the median of
   three measurements.  [n] is the length of the stream each client
   sends per session. *)
let serve ?n ctx hooks =
  let n =
    match n with
    | Some n -> n
    | None ->
      if ctx.quick then 20
      else max 20 (int_of_float (Float.round (ctx.seconds *. requests_per_s)))
  in
  let reqs = Array.of_list (I.serve_mix ~seed:ctx.seed n) in
  let acc = new_acc () in
  let first = Hashtbl.create 256 in
  let session () =
    let d, t_setup =
      time (fun () ->
          let d =
            Daemon.start ~epicd:ctx.epicd ~work:ctx.work ~store:(fresh_dir ctx "store")
          in
          (* The daemon probes its sim rate lazily, on the first stats. *)
          match Daemon.stats d with
          | _ -> d
          | exception e -> Daemon.stop d; raise e)
    in
    Fun.protect ~finally:(fun () -> Daemon.stop d) @@ fun () ->
    let before = Daemon.stats d in
    let replies = Array.init 2 (fun _ -> Array.make n "") in
    let lat = Array.init 2 (fun _ -> Array.make n nan) in
    let mu = Mutex.create () and cv = Condition.create () in
    let ready = ref 0 and go = ref false in
    let errors = Array.make 2 None in
    let client c () =
      try
        let conn = Daemon.open_conn d.Daemon.sock in
        Fun.protect ~finally:(fun () -> Daemon.close_conn conn) @@ fun () ->
        (* One control round trip first: the connection is then accepted
           and the timed requests never wait in the listen backlog. *)
        ignore (Daemon.call conn (Daemon.request_line Epic_serve.Protocol.Stats));
        Mutex.lock mu;
        incr ready;
        Condition.broadcast cv;
        while not !go do Condition.wait cv mu done;
        Mutex.unlock mu;
        Array.iteri
          (fun i (rq : I.request) ->
            let reply, dt =
              time (fun () ->
                  hooks.span ("serve." ^ I.op_name rq.I.rq_op) (fun () ->
                      Daemon.call conn rq.I.rq_line))
            in
            replies.(c).(i) <- reply;
            lat.(c).(i) <- dt *. 1000.)
          reqs
      with e ->
        Mutex.lock mu;
        errors.(c) <- Some e;
        Condition.broadcast cv;
        Mutex.unlock mu
    in
    let threads = List.init 2 (fun c -> Thread.create (client c) ()) in
    Mutex.lock mu;
    while !ready < 2 && Array.for_all Option.is_none errors do
      Condition.wait cv mu
    done;
    let t0 = Spans.now () in
    go := true;
    Condition.broadcast cv;
    Mutex.unlock mu;
    List.iter Thread.join threads;
    let elapsed = Spans.now () -. t0 in
    Array.iter
      (Option.iter (fun e -> Oracle.fail "serve client: %s" (Printexc.to_string e)))
      errors;
    let after = Daemon.stats d in
    let rss_mb = Daemon.peak_rss_mb (string_of_int d.Daemon.pid) in
    let acc_s = new_acc () in
    Array.iteri
      (fun c replies ->
        Array.iteri
          (fun i reply ->
            let rq = reqs.(i) in
            acc.attempted <- acc.attempted + 1;
            if reply = "" then acc.failed <- acc.failed + 1
            else begin
              acc_s.lat <- lat.(c).(i) :: acc_s.lat;
              acc_s.work <- acc_s.work +. 1.;
              (* Responses are deterministic: a repeat, on either
                 connection or in any session, gets the same bytes. *)
              match Hashtbl.find_opt first rq.I.rq_line with
              | Some r ->
                if r <> reply then
                  bad acc "serve: a repeated %s request got different bytes"
                    (I.op_name rq.I.rq_op)
              | None ->
                Hashtbl.replace first rq.I.rq_line reply;
                (match check_reply rq reply with
                 | Ok () -> ()
                 | Error m -> bad acc "serve %s: %s" (I.op_name rq.I.rq_op) m)
            end)
          replies)
      replies;
    acc_s.busy <- elapsed;
    let delta path = Daemon.stat after path -. Daemon.stat before path in
    let hits = delta [ "disk_cache"; "hits" ] and misses = delta [ "disk_cache"; "misses" ] in
    let op_p50 op =
      let ls =
        List.concat_map
          (fun c -> List.filteri (fun i _ -> reqs.(i).I.rq_op = op) (Array.to_list lat.(c)))
          [ 0; 1 ]
      in
      ("serve." ^ I.op_name op ^ ".p50_ms", Summary.median ls)
    in
    ( t_setup,
      sample ?rss_mb acc_s,
      [ ("serve.disk_hit_frac", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
        ("serve.dedup_hits", delta [ "dedup_hits" ]);
        ("serve.queue_depth_max", Daemon.stat after [ "queue_depth_max" ]);
        ("serve.daemon_p50_ms", Daemon.stat after [ "latency"; "p50_ms" ]) ]
      @ List.map op_p50 [ I.Compile; I.Simulate; I.Fault; I.Explore ] )
  in
  let sessions = List.init 3 (fun _ -> session ()) in
  { setups = List.map (fun (t, _, _) -> t) sessions;
    samples = List.map (fun (_, s, _) -> s) sessions;
    attempted = acc.attempted; failed = acc.failed;
    extra = (match List.rev sessions with (_, _, e) :: _ -> e | [] -> []) }

(* ------------------------------------------------------------------ *)

type workload = { name : string; why : string; run : ctx -> hooks -> outcome }

let all =
  [ { name = "compile";
      why =
        "cold compiles of 5 C programs over sampled configs: front-end and \
         optimiser do almost all the work, the simulator almost none";
      run = compile };
    { name = "simulate";
      why =
        "the 16 Table-1 points at paper sizes in the fast simulator loop; \
         compiling them is set-up";
      run = simulate };
    { name = "fault";
      why =
        "fault campaigns: the instrumented simulator loop, domain fan-out and \
         repeated golden prefixes, not the fast loop";
      run = fault };
    { name = "explore";
      why =
        "design-space campaigns, cold on a fresh store then replayed warm: \
         backend-only compiles, subgraph search, Pareto pruning, store writes \
         and reads";
      run = explore };
    { name = "serve";
      why =
        "a real epicd with 2 closed-loop clients sending one seeded request \
         stream, a quarter of it new keys: protocol, store, in-flight dedup, \
         work queue";
      run = (fun ctx hooks -> serve ctx hooks) } ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The deterministic end-to-end metrics: Table 1's 16 design points at
   the harness's default sizes, compiled and run in every workload so
   that a change to generated code shows wherever it is measured. *)
let reference_set () =
  let cache = T.Compile_cache.create () in
  let cycles = ref [] and words = ref 0 in
  List.iter
    (fun (p : I.program) ->
      List.iter
        (fun n ->
          let a = T.compile_epic ~cache (Config.with_alus n) ~source:p.I.source () in
          let r = T.run_epic a in
          Oracle.check
            (r.Sim.trap = None && r.Sim.ret = p.I.expected)
            "reference set: %s at %d ALUs returned %#x, expected %#x" p.I.name n
            r.Sim.ret p.I.expected;
          cycles := float_of_int r.Sim.stats.Sim.cycles :: !cycles;
          words := !words + Array.length a.T.ea_words)
        E.alu_sweep)
    (I.kernels E.default_sizes);
  [ ("epic_cycles_geomean", Summary.geomean !cycles); ("code_words", float_of_int !words) ]

let end_to_end ctx w =
  let o = w.run ctx direct in
  let own_rss = Option.value ~default:nan (Daemon.peak_rss_mb "self") in
  let median f = Summary.median (List.map f o.samples) in
  let metrics =
    [ ("setup_s", Summary.median o.setups);
      ("ops_per_s", median (fun s -> s.ops /. s.busy_s));
      ("call_p50_ms", median (fun s -> Summary.percentile s.lat_ms 50.));
      ("call_p90_ms", median (fun s -> Summary.percentile s.lat_ms 90.));
      ("peak_rss_mb", median (fun s -> Option.value ~default:own_rss s.rss_mb)) ]
    @ reference_set ()
  in
  List.iter
    (fun s ->
      Printf.eprintf "epicbench: %s: %d calls, %d beyond p90\n%!" w.name
        (List.length s.lat_ms) (Summary.beyond s.lat_ms 90.))
    o.samples;
  (metrics, o)

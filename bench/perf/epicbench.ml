(* epicbench: the repository benchmark.

     epicbench run [--workload W]... [--seed N] [--repeat R] [--seconds S]
                   [--trace FILE] [--quick] [--out FILE]
     epicbench compare A.json B.json
     epicbench list-metrics [--check BENCHMARK.json]

   [run] measures each requested workload in a fresh process, checks
   every output, and prints every metric as "name value unit", then one
   JSON line with the keys correct, attempted, failed and metrics.  With
   [--trace] the run is the separate traced run: per-layer metrics, and
   the spans as a Chrome trace.  See README.md. *)

open Cmdliner
module J = Epic.Profile.Json
module W = Workloads

let sh args = ignore (Sys.command (Filename.quote_command (List.hd args) (List.tl args)))

type run = {
  workload : string;
  seed : int;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

(* A metric's unit, also under the "<workload>." prefix of a summary. *)
let unit_of name =
  let base =
    match String.index_opt name '.' with
    | Some i when Metrics.find name = None -> String.sub name (i + 1) (String.length name - i - 1)
    | _ -> name
  in
  match Metrics.find base with Some m -> m.Metrics.unit_ | None -> ""

let metrics_json values =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (Summary.number v)
             (unit_of name))
         values)
  ^ "}"

let result_line r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    r.correct r.attempted r.failed (metrics_json r.values)

let run_json r =
  Printf.sprintf
    "{\"workload\": %S, \"seed\": %d, \"traced\": %b, \"correct\": %b, \"attempted\": %d, \
     \"failed\": %d, \"metrics\": %s}"
    r.workload r.seed r.traced r.correct r.attempted r.failed (metrics_json r.values)

let write_runs path runs =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"runs\": [\n";
      output_string oc (String.concat ",\n" (List.map run_json runs));
      output_string oc "\n]}\n")

let int_field k j = match J.member k j with Some (J.Int i) -> i | _ -> 0

(* A run from a result object: the last line of a single run's output,
   or an entry of a runs file. *)
let run_of_json ~workload ~seed ~traced j =
  let num = function Some (J.Int i) -> float_of_int i | Some (J.Float f) -> f | _ -> nan in
  { workload; seed; traced;
    correct = J.member "correct" j = Some (J.Bool true);
    attempted = int_field "attempted" j;
    failed = int_field "failed" j;
    values =
      (match J.member "metrics" j with
       | Some (J.Obj kvs) -> List.map (fun (k, v) -> (k, num (J.member "value" v))) kvs
       | _ -> []) }

let failed_run ~workload ~seed ~traced =
  { workload; seed; traced; correct = false; attempted = 1; failed = 1; values = [] }

let read_runs path =
  let fail m = failwith (Printf.sprintf "%s: %s" path m) in
  match J.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Error e -> fail e
  | Ok doc -> (
    match J.member "runs" doc with
    | Some (J.List runs) ->
      List.map
        (fun j ->
          match J.member "workload" j with
          | Some (J.Str workload) ->
            run_of_json ~workload ~seed:(int_field "seed" j)
              ~traced:(J.member "traced" j = Some (J.Bool true)) j
          | _ -> fail "a run without a workload")
        runs
    | _ -> fail "no \"runs\" list")

(* ------------------------------------------------------------------ *)
(* One workload, one seed, in this process *)

let run_one (ctx : W.ctx) (w : W.workload) ~trace_file =
  let values, attempted, failed =
    match trace_file with
    | None ->
      let values, o = W.end_to_end ctx w in
      (values, o.W.attempted, o.W.failed)
    | Some file -> Layers.run ctx w ~trace_file:file
  in
  List.iter
    (fun (name, v) -> Oracle.check (Float.is_finite v) "metric %s is %f" name v)
    values;
  let correct = Oracle.ok () && failed = 0 in
  { workload = w.W.name; seed = ctx.W.seed; traced = trace_file <> None; correct;
    attempted = max 1 attempted; failed; values = (if correct then values else []) }

let print_run r =
  List.iter
    (fun (name, v) -> Printf.printf "%s %s %s\n" name (Summary.number v) (unit_of name))
    r.values

(* Several runs: each in a child process running the single-run form. *)
let run_child ~args w seed =
  let argv =
    Array.of_list
      ([ Sys.executable_name; "run"; "--workload"; w; "--seed"; string_of_int seed ] @ args)
  in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let lines = In_channel.input_lines ic in
  ignore (Unix.close_process_in ic);
  let traced = List.mem "--trace" args in
  match J.parse (match List.rev lines with last :: _ -> last | [] -> "") with
  | Ok j -> run_of_json ~workload:w ~seed ~traced j
  | Error _ -> failed_run ~workload:w ~seed ~traced

let run workloads seed repeat seconds trace quick out epicd root work =
  let names = if workloads = [] then List.map (fun w -> w.W.name) W.all else workloads in
  List.iter
    (fun n -> if W.find n = None then failwith ("epicbench: unknown workload " ^ n))
    names;
  let epicd =
    match epicd with
    | Some e -> e
    | None ->
      Filename.concat (Filename.dirname Sys.executable_name) "../../bin/epicd.exe"
  in
  let runs =
    match (names, repeat) with
    | [ name ], 1 ->
      let w = Option.get (W.find name) in
      let dir = Filename.concat work (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
      sh [ "mkdir"; "-p"; dir ];
      (* The stores write thousands of small files: flush earlier writes
         now, so that they are not written back during a timed phase. *)
      sh [ "sync" ];
      let r =
        match
          let ctx =
            { W.seed; seconds; quick; root; work = dir; epicd;
              expected = Oracle.load (Filename.concat root "bench/perf/expected.json") }
          in
          run_one ctx w ~trace_file:trace
        with
        | r -> r
        | exception e ->
          Oracle.fail "%s" (Printexc.to_string e);
          failed_run ~workload:name ~seed ~traced:(trace <> None)
      in
      List.iter (Printf.eprintf "epicbench: FAIL: %s\n") (List.rev !Oracle.failures);
      if r.correct then sh [ "rm"; "-rf"; dir ];
      sh [ "sync" ];
      print_run r;
      [ r ]
    | _ ->
      let args =
        [ "--seconds"; string_of_float seconds; "--root"; root; "--work-dir"; work;
          "--epicd"; epicd ]
        @ (if quick then [ "--quick" ] else [])
      in
      List.concat_map
        (fun name ->
          List.init repeat (fun i ->
              let seed = seed + i in
              let trace_args =
                match trace with
                | None -> []
                | Some f ->
                  [ "--trace";
                    Printf.sprintf "%s-%s-%d.json" (Filename.remove_extension f) name seed ]
              in
              Printf.printf "# %s seed %d\n%!" name seed;
              let r = run_child ~args:(args @ trace_args) name seed in
              print_run r;
              r))
        names
  in
  Option.iter (fun path -> write_runs path runs) out;
  let summary =
    match runs with
    | [ r ] -> r
    | _ ->
      let keys =
        List.sort_uniq compare
          (List.concat_map (fun r -> List.map (fun (k, _) -> (r.workload, k)) r.values) runs)
      in
      { workload = "all"; seed; traced = trace <> None;
        correct = List.for_all (fun r -> r.correct) runs;
        attempted = List.fold_left (fun a r -> a + r.attempted) 0 runs;
        failed = List.fold_left (fun a r -> a + r.failed) 0 runs;
        values =
          List.map
            (fun (w, k) ->
              ( w ^ "." ^ k,
                Summary.median
                  (List.filter_map
                     (fun r -> if r.workload = w then List.assoc_opt k r.values else None)
                     runs) ))
            keys }
  in
  print_endline (result_line summary);
  if summary.correct then 0 else 1

(* ------------------------------------------------------------------ *)
(* compare *)

let compare_cmd a b =
  let ra = read_runs a and rb = read_runs b in
  let keys =
    List.sort_uniq compare
      (List.concat_map (fun r -> List.map (fun (k, _) -> (r.workload, k)) r.values) (ra @ rb))
  in
  let values runs w k =
    List.filter_map (fun r -> if r.workload = w then List.assoc_opt k r.values else None) runs
  in
  let bad = ref 0 in
  Printf.printf "%-9s %-26s %12s %12s %12s %12s %12s %12s  %s\n" "workload" "metric" "A q1"
    "A median" "A q3" "B q1" "B median" "B q3" "verdict";
  List.iter
    (fun (w, k) ->
      let va = values ra w k and vb = values rb w k in
      let qa1, ma, qa3 = Summary.quartiles va and qb1, mb, qb3 = Summary.quartiles vb in
      let verdict =
        match Metrics.find k with
        | _ when va = [] || vb = [] -> "missing"
        | Some { Metrics.exact = true; _ } ->
          if List.sort_uniq compare (va @ vb) = [ List.hd va ] then "equal"
          else (incr bad; "DIFFERENT")
        | Some { Metrics.bound = Some bound; better; _ } ->
          let worse =
            match better with
            | Metrics.Lower -> (mb -. ma) /. ma
            | Metrics.Higher -> (ma -. mb) /. ma
          in
          let spread = Float.max ((qa3 -. qa1) /. ma) ((qb3 -. qb1) /. mb) in
          if worse > bound then begin
            incr bad;
            Printf.sprintf "WORSE by %.1f%% (bound %g%%)" (100. *. worse) (100. *. bound)
          end
          else if spread > bound then
            Printf.sprintf "unresolved: spread %.1f%% exceeds the bound" (100. *. spread)
          else Printf.sprintf "within %g%% (%+.1f%%)" (100. *. bound) (-100. *. worse)
        | _ -> "-"
      in
      Printf.printf "%-9s %-26s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g  %s\n" w k qa1 ma
        qa3 qb1 mb qb3 verdict)
    keys;
  let failed = List.filter (fun r -> not r.correct || r.failed > 0) (ra @ rb) in
  List.iter
    (fun r -> Printf.printf "run %s seed %d: incorrect or failed\n" r.workload r.seed)
    failed;
  if !bad = 0 && failed = [] then 0 else 1

let list_metrics check =
  match check with
  | None ->
    Metrics.pp_list stdout;
    0
  | Some path ->
    Metrics.check_manifest ~workloads:(List.map (fun w -> w.W.name) W.all) path;
    Printf.printf "%s: %d end-to-end and %d per-layer metrics, %d workloads match\n" path
      (List.length Metrics.end_to_end) (List.length Metrics.per_layer) (List.length W.all);
    0

(* ------------------------------------------------------------------ *)

let run_term =
  let workloads =
    Arg.(value & opt_all string []
         & info [ "workload" ] ~docv:"NAME"
           ~doc:"Workload to run (repeatable; default all): compile, simulate, \
                 fault, explore, serve.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.") in
  let repeat =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"R"
           ~doc:"Run each workload $(docv) times, with seeds N to N+R-1.")
  in
  let seconds =
    Arg.(value & opt float 15. & info [ "seconds" ] ~docv:"S"
           ~doc:"Size each workload's work to take about $(docv) seconds on the reference host.")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Make the traced run instead: per-layer metrics, and the spans \
                 written to $(docv) as a Chrome trace.")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"Tiny inputs: every workload and check in a few seconds.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Also write every run to $(docv), for $(b,epicbench compare).")
  in
  let epicd =
    Arg.(value & opt (some string) None & info [ "epicd" ] ~docv:"BIN"
           ~doc:"The epicd binary (default: bin/epicd.exe next to this build).")
  in
  let root =
    Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR" ~doc:"The repository root.")
  in
  let work =
    Arg.(value & opt string "_build/epicbench" & info [ "work-dir" ] ~docv:"DIR"
           ~doc:"Scratch directory for stores, the daemon's socket and its log.")
  in
  Term.(const run $ workloads $ seed $ repeat $ seconds $ trace $ quick $ out $ epicd $ root
        $ work)

let () =
  (* A daemon that dies mid-request must surface as an error, not kill
     the benchmark with SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let run_cmd = Cmd.v (Cmd.info "run" ~doc:"Run the benchmark") run_term in
  let compare_cmd =
    let file n = Arg.(required & pos n (some file) None & info [] ~docv:"RUNS.json") in
    Cmd.v
      (Cmd.info "compare" ~doc:"Compare two sets of runs written by $(b,run --out)")
      Term.(const compare_cmd $ file 0 $ file 1)
  in
  let list_cmd =
    let check =
      Arg.(value & opt (some file) None & info [ "check" ] ~docv:"BENCHMARK.json"
             ~doc:"Fail unless $(docv) lists exactly these metrics and workloads.")
    in
    Cmd.v (Cmd.info "list-metrics" ~doc:"List every metric") Term.(const list_metrics $ check)
  in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "epicbench" ~doc:"The repository benchmark")
          [ run_cmd; compare_cmd; list_cmd ]))

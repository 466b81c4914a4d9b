(* Shared command-line handling for the EPIC tools: every architectural
   parameter of the configuration header is a flag, so the whole
   customisation space of the paper is reachable from the shell. *)

open Cmdliner

let config_term =
  let alus =
    Arg.(value & opt int 4 & info [ "alus" ] ~docv:"N" ~doc:"Number of ALUs.")
  in
  let gprs =
    Arg.(value & opt int 64 & info [ "gprs" ] ~docv:"N" ~doc:"General-purpose registers.")
  in
  let preds =
    Arg.(value & opt int 32 & info [ "preds" ] ~docv:"N" ~doc:"Predicate registers.")
  in
  let btrs =
    Arg.(value & opt int 16 & info [ "btrs" ] ~docv:"N" ~doc:"Branch target registers.")
  in
  let issue =
    Arg.(value & opt int 4 & info [ "issue" ] ~docv:"N" ~doc:"Instructions per issue (1-4).")
  in
  let width =
    Arg.(value & opt int 32 & info [ "width" ] ~docv:"BITS" ~doc:"Datapath width.")
  in
  let ports =
    Arg.(value & opt int 8 & info [ "rf-ports" ] ~docv:"N"
         ~doc:"Register-file operations per cycle.")
  in
  let no_forwarding =
    Arg.(value & flag & info [ "no-forwarding" ] ~doc:"Disable result forwarding.")
  in
  let customs =
    Arg.(value & opt_all string [] & info [ "custom" ] ~docv:"NAME"
         ~doc:"Include a custom instruction from the registry (e.g. ROTR).")
  in
  let omits =
    Arg.(value & opt_all string [] & info [ "omit" ] ~docv:"OP"
         ~doc:"Remove an ALU operation from the datapath (e.g. DIV).")
  in
  let build alus gprs preds btrs issue width ports no_forwarding customs omits =
    let cfg =
      { Epic.Config.default with
        Epic.Config.n_alus = alus; n_gprs = gprs; n_preds = preds;
        n_btrs = btrs; issue_width = issue; width; rf_port_budget = ports;
        forwarding = not no_forwarding }
    in
    let cfg =
      List.fold_left
        (fun cfg o ->
          match Epic.Isa.opcode_of_string (String.uppercase_ascii o) with
          | Some op -> { cfg with Epic.Config.alu_omit = op :: cfg.Epic.Config.alu_omit }
          | None -> failwith (Printf.sprintf "unknown operation %s" o))
        cfg omits
    in
    let cfg =
      List.fold_left
        (fun cfg c -> Epic.Config.add_custom cfg (String.uppercase_ascii c))
        cfg customs
    in
    match Epic.Config.validate cfg with
    | Ok () -> cfg
    | Error ds ->
      (* One line per violated constraint, then exit non-zero. *)
      List.iter
        (fun d -> Printf.eprintf "error: invalid configuration: %s\n" (Epic.Diag.to_string d))
        ds;
      exit 1
  in
  Term.(const build $ alus $ gprs $ preds $ btrs $ issue $ width $ ports
        $ no_forwarding $ customs $ omits)

(* Pipeline control shared by the compiling tools (epicc, epicsim,
   epicprof): pass selection, MIR verification, differential checking,
   timing, and IR dumping. *)
let pipeline_term =
  let passes =
    Arg.(value & opt (some string) None
         & info [ "passes" ] ~docv:"LIST"
           ~doc:"Replace the default pass pipeline with a comma-separated \
                 list of registry passes (see --list-passes).")
  in
  let disable =
    Arg.(value & opt_all string []
         & info [ "disable-pass" ] ~docv:"NAME"
           ~doc:"Remove every occurrence of a pass from the pipeline \
                 (repeatable).")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify-ir" ]
           ~doc:"Run the MIR well-formedness verifier on the pipeline input \
                 and after every pass.")
  in
  let diff =
    Arg.(value & flag
         & info [ "diff-check" ]
           ~doc:"Differentially check each pass: re-run the reference \
                 interpreter and compare results against the pre-pass \
                 program.")
  in
  let time =
    Arg.(value & flag
         & info [ "time-passes" ]
           ~doc:"Print a per-pass wall-time and IR-delta report to stderr.")
  in
  let dump =
    Arg.(value & opt_all string []
         & info [ "dump-after" ] ~docv:"PASS"
           ~doc:"Dump the MIR to stderr after each occurrence of a pass \
                 (repeatable).")
  in
  let build passes disable verify diff time dump =
    { Epic.Toolchain.pp_passes =
        Option.map
          (fun s ->
            String.split_on_char ',' s |> List.map String.trim
            |> List.filter (fun n -> n <> ""))
          passes;
      pp_disable = disable; pp_verify = verify; pp_diff_check = diff;
      pp_time = time; pp_dump_after = dump }
  in
  Term.(const build $ passes $ disable $ verify $ diff $ time $ dump)

(* Print the pipeline report when --time-passes was given. *)
let report_pipeline (pl : Epic.Toolchain.pipeline) report =
  if pl.Epic.Toolchain.pp_time then
    Format.eprintf "%a@." Epic.Opt.Pipeline.pp_report report

let list_passes () =
  List.iter
    (fun (p : Epic.Opt.pass) ->
      Printf.printf "%-14s %s\n" p.Epic.Opt.pass_name p.Epic.Opt.pass_descr)
    Epic.Opt.Registry.all

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let input_term =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Input file.")

(* --jobs N, shared by every campaign tool.  0 is shorthand for the
   recommended domain count (also the default).  Campaign results are
   bit-identical for every jobs value; only wall time changes. *)
let jobs_term =
  let jobs =
    Arg.(value & opt int 0
         & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Evaluate independent campaign runs on $(docv) domains \
                 (default: the recommended domain count of this machine). \
                 Results are bit-identical for every value.")
  in
  let build n =
    if n < 0 then failwith "--jobs must be >= 0"
    else if n = 0 then Epic.Exec.default_jobs ()
    else n
  in
  Term.(const build $ jobs)

(* Exit-code convention for trapped simulations, shared by epicsim,
   epicasm and epicd's smoke tooling: the watchdog (fuel) trap exits 3,
   every other architectural fault exits 2. *)
let trap_exit_code (t : Epic.Sim.trap) =
  match t.Epic.Sim.tr_cause with Epic.Sim.T_fuel -> 3 | _ -> 2

(* Campaign convention shared by the campaign tools (epicfault,
   epic_explore, epicd, epicload): stdout stays byte-identical across
   --jobs values; wall time and cache statistics go to stderr. *)
let campaign ~label ~jobs ?caches ?notes ~tasks f =
  fst (Epic.Exec.run_campaign ~label ~jobs ?caches ?notes ~tasks f)

let handle_errors f =
  try f () with
  | Failure m | Sys_error m ->
    Printf.eprintf "error: %s\n" m;
    exit 1
  | Epic.Cfront.Error m ->
    Printf.eprintf "compile error: %s\n" m;
    exit 1
  | Epic.Opt.Pipeline.Error m ->
    Printf.eprintf "pipeline error: %s\n" m;
    exit 1
  | Epic.Asm.Asm_error d ->
    Printf.eprintf "assembler error: %s\n" (Epic.Diag.to_string d);
    exit 1
  | Epic.Encoding.Encode_error d ->
    Printf.eprintf "encoding error: %s\n" (Epic.Diag.to_string d);
    exit 1
  | Epic.Diag.Error d ->
    Printf.eprintf "error: %s\n" (Epic.Diag.to_string d);
    exit 1
  | Epic.Sched.Codegen.Codegen_error m ->
    Printf.eprintf "code generation error: %s\n" m;
    exit 1
  | Epic.Sim.Sim_error d ->
    Printf.eprintf "simulation error: %s\n" (Epic.Diag.to_string d);
    exit 1
  | Invalid_argument m ->
    Printf.eprintf "error: %s\n" m;
    exit 1

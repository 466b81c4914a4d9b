(* epicfault: deterministic fault-injection campaigns.  Compiles an
   EPIC-C program for the configured processor, runs a clean golden
   simulation (cross-checked against the MIR reference interpreter), then
   injects seeded single-bit flips into the chosen architectural
   structures and prints the per-structure vulnerability table — as text
   or as machine-readable JSON. *)

open Cmdliner

let parse_targets s =
  if s = "all" then Epic.Fault.all_targets
  else
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun t -> t <> "")
    |> List.map (fun t ->
           match Epic.Fault.target_of_string t with
           | Some target -> target
           | None ->
             failwith
               (Printf.sprintf
                  "unknown fault target %S (expected gpr, pred, btr, mem, inst)"
                  t))

let run input cfg no_pred seed runs targets fuel_factor json with_faults
    pipeline jobs =
  Cli_common.handle_errors @@ fun () ->
  let source = Cli_common.read_file input in
  let targets = parse_targets targets in
  let a =
    Epic.Toolchain.compile_epic cfg ~source ~predication:(not no_pred)
      ~pipeline ()
  in
  Cli_common.report_pipeline pipeline a.Epic.Toolchain.ea_report;
  (* Where the simulation went, on stderr with the wall time: injections
     settled at the flip, at a re-convergence check, or run to the end,
     and the cycles simulated after the flips. *)
  let notes rp =
    let e = rp.Epic.Fault.rp_effort in
    [ ("settled-at-flip", e.Epic.Fault.ef_at_flip);
      ("reconverged", e.Epic.Fault.ef_reconverged);
      ("ran-to-end", e.Epic.Fault.ef_to_end);
      ("cycles-after-flip", e.Epic.Fault.ef_cycles) ]
  in
  let rp =
    Cli_common.campaign ~label:"epicfault" ~jobs ~notes
      ~tasks:Epic.Fault.total_runs (fun () ->
        Epic.Toolchain.fault_campaign ~seed ~runs ~targets ~fuel_factor ~jobs a)
  in
  if json then
    print_endline
      (Epic.Profile.Json.to_string
         (Epic.Fault.report_to_json ~faults:with_faults rp))
  else begin
    Format.printf "%a@." Epic.Fault.pp_report rp;
    if with_faults then
      List.iter
        (fun (f, o) ->
          Format.printf "  %a -> %s@." Epic.Fault.pp_fault f
            (Epic.Fault.string_of_outcome o))
        rp.Epic.Fault.rp_faults
  end

let cmd =
  let no_pred =
    Arg.(value & flag & info [ "no-predication" ] ~doc:"Disable if-conversion.")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"N"
           ~doc:"PRNG seed (non-zero); the same seed reproduces the identical \
                 campaign.")
  in
  let runs =
    Arg.(value & opt int 32
         & info [ "runs" ] ~docv:"N" ~doc:"Injected runs per target structure.")
  in
  let targets =
    Arg.(value & opt string "all"
         & info [ "targets" ] ~docv:"LIST"
           ~doc:"Comma-separated structures to inject into: gpr, pred, btr, \
                 mem, inst (default all).")
  in
  let fuel_factor =
    Arg.(value & opt int 4
         & info [ "fuel-factor" ] ~docv:"N"
           ~doc:"Watchdog budget for injected runs, as a multiple of the \
                 golden cycle count.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let with_faults =
    Arg.(value & flag
         & info [ "faults" ]
           ~doc:"Also list every injected fault with its classification.")
  in
  Cmd.v
    (Cmd.info "epicfault"
       ~doc:"Run deterministic fault-injection campaigns on the EPIC simulator")
    Term.(const run $ Cli_common.input_term $ Cli_common.config_term $ no_pred
          $ seed $ runs $ targets $ fuel_factor $ json $ with_faults
          $ Cli_common.pipeline_term $ Cli_common.jobs_term)

let () = exit (Cmd.eval cmd)

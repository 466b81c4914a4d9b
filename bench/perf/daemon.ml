(* A real epicd process on a Unix socket, and the connections its
   clients use.  Every daemon started here is stopped and reaped,
   including when a check or a connection fails. *)

module J = Epic.Profile.Json

type t = { pid : int; sock : string }

(* A reply that never comes is a failure, not a hang. *)
let reply_timeout_s = 120.

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_timeout_s;
    Some fd
  | exception Unix.Unix_error (_, _, _) ->
    Unix.close fd;
    None

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let open_conn path =
  match connect path with
  | Some fd ->
    { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | None -> failwith ("epicbench: cannot connect to epicd at " ^ path)

let close_conn c = try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()

(* One request, one reply: the closed loop. *)
let call c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let stop_process pid =
  let reaped () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  let rec wait n =
    reaped () || (n > 0 && (Unix.sleepf 0.02; wait (n - 1)))
  in
  (* Five seconds to drain after a shutdown request, then SIGKILL. *)
  if not (wait 250) then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
    ignore (Unix.waitpid [] pid)
  end

(* Start the daemon on the store directory [store] and wait until it
   accepts. *)
let start ~epicd ~work ~store =
  let sock = Filename.concat work "epicd.sock" in
  let log =
    Unix.openfile (Filename.concat work "epicd.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process epicd
      [| epicd; "--socket"; sock; "--jobs"; "2"; "--max-conns"; "2";
         "--cache-dir"; store |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  let t = { pid; sock } in
  let rec await n =
    match connect sock with
    | Some fd -> Unix.close fd
    | None ->
      if n = 0 then begin
        stop_process pid;
        failwith "epicbench: epicd did not start listening"
      end;
      Unix.sleepf 0.01;
      await (n - 1)
  in
  await 3000;
  t

let request_line op =
  Epic_serve.Protocol.to_line { rq_id = None; rq_deadline_ms = None; rq_op = op }

(* A control request on its own connection.  With --max-conns 2 it waits
   in the listen backlog until the clients have hung up. *)
let control t op =
  let c = open_conn t.sock in
  Fun.protect ~finally:(fun () -> close_conn c) (fun () -> call c (request_line op))

let stats t =
  match J.parse (control t Epic_serve.Protocol.Stats) with
  | Ok j -> Option.value ~default:J.Null (J.member "result" j)
  | Error e -> failwith ("epicbench: unparseable stats reply: " ^ e)

let stop t =
  (try ignore (control t Epic_serve.Protocol.Shutdown) with _ -> ());
  stop_process t.pid

(* Peak resident set of a process, in MB, from /proc. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | status ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> None)
      (String.split_on_char '\n' status)
  | exception Sys_error _ -> None

(* Numeric field of a stats document, by path. *)
let stat j path =
  match List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) path with
  | Some (J.Int i) -> float_of_int i
  | Some (J.Float f) -> f
  | _ -> 0.

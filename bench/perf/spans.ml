(* Host-side spans for the traced run.  The benchmark wraps each call it
   makes into a layer's public function; nothing inside the program under
   test is instrumented.  Spans are kept in memory, written as Chrome
   trace-event JSON (chrome://tracing, Perfetto) when the run ends, and
   reduced to per-layer self time.

   A span records its name, start, end, the span open on the same thread
   when it started (its parent), and a group id shared by every span of
   one compile, request or injection. *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int;   (* -1 at the root *)
  sp_group : int;
  sp_tid : int;
  sp_t0 : float;
  sp_t1 : float;
}

(* Seconds on the monotonic clock, to the nanosecond: the wall clock's
   float loses everything below a quarter of a microsecond. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let mu = Mutex.create ()
let locked f = Mutex.lock mu; Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let finished : span list ref = ref []
let next_id = ref 0
let next_group = ref 0

(* Open spans per thread: (id, group) innermost first. *)
let open_ : (int, (int * int) list) Hashtbl.t = Hashtbl.create 8

let new_group () = locked (fun () -> incr next_group; !next_group)

let reset () =
  locked (fun () ->
      finished := [];
      Hashtbl.reset open_)

let with_span ?group name f =
  let tid = Thread.id (Thread.self ()) in
  let id, par, grp =
    locked (fun () ->
        incr next_id;
        let stack = Option.value ~default:[] (Hashtbl.find_opt open_ tid) in
        let par, inherited = match stack with top :: _ -> top | [] -> (-1, 0) in
        let grp = Option.value ~default:inherited group in
        Hashtbl.replace open_ tid ((!next_id, grp) :: stack);
        (!next_id, par, grp))
  in
  let t0 = now () in
  Fun.protect f ~finally:(fun () ->
      let t1 = now () in
      locked (fun () ->
          (match Hashtbl.find_opt open_ tid with
           | Some (_ :: rest) -> Hashtbl.replace open_ tid rest
           | _ -> ());
          finished :=
            { sp_id = id; sp_name = name; sp_parent = par; sp_group = grp;
              sp_tid = tid; sp_t0 = t0; sp_t1 = t1 }
            :: !finished))

let spans () = locked (fun () -> List.rev !finished)

let dur s = s.sp_t1 -. s.sp_t0

(* Length of the union of intervals: children on different threads may
   overlap, so their durations cannot simply be summed. *)
let union_length ivs =
  let ivs = List.sort compare ivs in
  let rec go acc cur = function
    | [] -> (match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
      match cur with
      | None -> go acc (Some (a, b)) rest
      | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
      | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None ivs

(* Self time of every span: its duration minus the part its children
   cover. *)
let self_times ss =
  let kids = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        Hashtbl.replace kids s.sp_parent
          ((s.sp_t0, s.sp_t1)
          :: Option.value ~default:[] (Hashtbl.find_opt kids s.sp_parent)))
    ss;
  List.map
    (fun s ->
      let covered =
        union_length (Option.value ~default:[] (Hashtbl.find_opt kids s.sp_id))
      in
      (s, Float.max 0. (dur s -. covered)))
    ss

(* Complete ("X") events with microsecond timestamps relative to the
   first span; ids ride in [args] so a span's parent and group can be
   followed in the viewer. *)
let write_chrome path ss =
  let base = List.fold_left (fun m s -> Float.min m s.sp_t0) infinity ss in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\
         \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"group\":%d}}"
        (Epic.Profile.Json.escape s.sp_name) s.sp_tid
        ((s.sp_t0 -. base) *. 1e6) (dur s *. 1e6) s.sp_id s.sp_parent
        s.sp_group)
    (List.sort (fun a b -> compare (a.sp_t0, a.sp_id) (b.sp_t0, b.sp_id)) ss);
  output_string oc "\n]}\n"

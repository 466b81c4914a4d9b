(* Output checks.  [fail] records a wrong output: the run then reports
   [correct = false], prints no metrics and exits non-zero.  [note]
   records drift from a value recorded in expected.json when the
   benchmark was defined — simulated cycle counts and fault/explore
   digests, which a legitimate compiler or simulator change may move and
   which the deterministic metrics already gate — and only prints it. *)

module J = Epic.Profile.Json

let failures : string list ref = ref []

let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

let note fmt = Printf.ksprintf (fun m -> Printf.eprintf "epicbench: note: %s\n%!" m) fmt

let check cond fmt =
  Printf.ksprintf (fun m -> if not cond then failures := m :: !failures) fmt

let ok () = !failures = []

(* expected.json: the paper-size Table-1 checksums (hard) and cycles
   (recorded), plus recorded fault-report digests and explore counts,
   keyed by a string naming the inputs that produced them. *)
type t = {
  table1 : (string * (int * int list)) list;  (* name -> checksum, cycles at 1-4 ALUs *)
  recorded : (string * string) list;
}

let load path =
  let doc =
    match J.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  in
  let int = function J.Int i -> i | _ -> failwith (path ^ ": expected an integer") in
  let obj = function
    | Some (J.Obj kvs) -> kvs
    | _ -> failwith (path ^ ": expected an object")
  in
  { table1 =
      List.map
        (fun (name, row) ->
          ( name,
            ( int (Option.get (J.member "checksum" row)),
              match J.member "cycles" row with
              | Some (J.List l) -> List.map int l
              | _ -> failwith (path ^ ": table1 row without cycles") ) ))
        (obj (J.member "table1_paper" doc));
    recorded =
      List.map
        (fun (k, v) -> (k, match v with J.Str s -> s | _ -> J.to_string v))
        (obj (J.member "recorded" doc)) }

(* Compare [value] with the recording under [key], if there is one. *)
let drift t ~key value =
  match List.assoc_opt key t.recorded with
  | Some v when v <> value ->
    note "%s is %s; %s was recorded when the benchmark was defined" key value v
  | _ -> ()

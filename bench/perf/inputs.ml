(* Every input the benchmark feeds the program is generated here from the
   workload seed: programs, configuration samples, visiting orders and
   the epicd request mix.  The same seed gives the same inputs. *)

module Config = Epic.Config
module S = Epic.Workloads.Sources
module E = Epic.Experiments
module P = Epic_serve.Protocol
module Prng = Epic.Workloads.Prng

(* ------------------------------------------------------------------ *)
(* Seeded streams *)

(* One independent stream per (seed, purpose). *)
let rng ~seed ~salt =
  Prng.create
    ~seed:((((seed * 0x9E3779B1) + (salt * 0x85EBCA77)) land 0xFFFFFFFF) lor 1)
    ()

let below r n = Prng.next r mod n

let uniform r = float_of_int (Prng.next r) /. 4294967296.

let shuffle r a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = below r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Non-zero seeds for the program's own seeded campaigns. *)
let derived_seed r = 1 + below r 0x3FFFFFFF

(* ------------------------------------------------------------------ *)
(* Programs *)

type program = { name : string; source : string; expected : int }

let of_bm (bm : S.benchmark) =
  { name = bm.S.bm_name; source = bm.S.bm_source;
    expected = bm.S.bm_expected land 0xFFFFFFFF }

let benchmarks (s : E.sizes) =
  let w, h = s.E.dct_size in
  [ S.sha_benchmark ~bytes:s.E.sha_bytes (); S.aes_benchmark ~iters:s.E.aes_iters ();
    S.dct_benchmark ~width:w ~height:h ();
    S.dijkstra_benchmark ~nodes:s.E.dijkstra_nodes () ]

let kernels s = List.map of_bm (benchmarks s)

(* The inputs of [epic_explore --small]. *)
let small_sizes =
  { E.sha_bytes = 64; aes_iters = 4; dct_size = (16, 16); dijkstra_nodes = 12 }

(* examples/sha256.c hashes the 64-byte message of [sha_benchmark
   ~bytes:64], so the OCaml reference implementation gives its result. *)
let example ~root =
  { name = "sha256c";
    source =
      In_channel.with_open_bin (Filename.concat root "examples/sha256.c")
        In_channel.input_all;
    expected = (S.sha_benchmark ~bytes:64 ()).S.bm_expected land 0xFFFFFFFF }

(* The four kernels plus the C example: the corpus of the compile and
   fault workloads and of the traced compile layers. *)
let corpus ~root sizes = kernels sizes @ [ example ~root ]

(* ------------------------------------------------------------------ *)
(* Configurations *)

(* [n] configurations over the explorer's axes with the immediate
   payload pinned at the default 16 bits: at 12 or 20 bits some programs'
   literals or branch labels do not encode, and every configuration here
   must compile every program.  Each axis value appears equally often
   (give or take one) and the pairing of values across axes is seeded, so
   different seeds draw different configurations without changing how
   often a wide machine or a deep pipeline is compiled for. *)
let sample_configs ~seed n =
  let ax = Epic_explore.Campaign.default_axes in
  let r = rng ~seed ~salt:1 in
  let pick values =
    let values = Array.of_list values in
    let order = shuffle r (Array.init n Fun.id) in
    fun i -> values.(order.(i) mod Array.length values)
  in
  let alus = pick ax.Epic_explore.Campaign.ax_alus
  and issue = pick ax.Epic_explore.Campaign.ax_issues
  and gprs = pick ax.Epic_explore.Campaign.ax_gprs
  and preds = pick ax.Epic_explore.Campaign.ax_preds
  and btrs = pick ax.Epic_explore.Campaign.ax_btrs
  and stages = pick ax.Epic_explore.Campaign.ax_stages in
  List.init n (fun i ->
      { Config.default with
        Config.n_alus = alus i; issue_width = issue i; n_gprs = gprs i;
        n_preds = preds i; n_btrs = btrs i; pipeline_stages = stages i })

(* ------------------------------------------------------------------ *)
(* The epicd request mix *)

type op = Compile | Simulate | Fault | Explore

let op_name = function
  | Compile -> "compile"
  | Simulate -> "simulate"
  | Fault -> "fault"
  | Explore -> "explore"

(* What a correct response carries: compile's simulated return value,
   simulate's return value, a fault report's golden result and run count,
   or the number of measured points of an explore slice. *)
type expect = Ret of int | Golden of int * int | Points of int

type request = { rq_op : op; rq_line : string; rq_expect : expect }

let wl name params =
  P.Src_workload { P.wl_name = name; wl_params = List.sort compare params }

(* (source spec, reference checksum) for the small sources the mix
   draws from. *)
let sha b = (wl "sha" [ ("bytes", b) ], (S.sha_benchmark ~bytes:b ()).S.bm_expected)
let aes n = (wl "aes" [ ("iters", n) ], (S.aes_benchmark ~iters:n ()).S.bm_expected)
let dct w h =
  ( wl "dct" [ ("width", w); ("height", h) ],
    (S.dct_benchmark ~width:w ~height:h ()).S.bm_expected )
let dijkstra n =
  (wl "dijkstra" [ ("nodes", n) ], (S.dijkstra_benchmark ~nodes:n ()).S.bm_expected)

(* The handwritten gcd program epicload uses, with seeded operands: the
   simulate path without the compiler, checked against [gcd a b]. *)
let gcd_asm a b =
  Printf.sprintf
    "_start:\n\
     { MOV r1, #4096 ; MOV r12, #%d ; MOV r13, #%d ; PBRR b0, @loop }\n\
     loop:\n\
     { CMPP.NE p1, p2, r13, #0 ; PBRR b1, @done }\n\
     { BRCT #1, #2 }\n\
     { REM r14, r12, r13 }\n\
     { MOV r12, r13 ; MOV r13, r14 }\n\
     { BRU #0 }\n\
     done:\n\
     { MOV r3, r12 }\n\
     { STW r1, #2, r3 }\n\
     { HALT }\n" a b

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let m32 v = v land 0xFFFFFFFF

(* Round-robin over groups, each in a seeded order: every prefix of the
   result draws from every group almost equally. *)
let interleave r groups =
  let groups = Array.of_list (List.map (fun g -> shuffle r (Array.of_list g)) groups) in
  let longest = Array.fold_left (fun m g -> max m (Array.length g)) 0 groups in
  Array.of_list
    (List.concat
       (List.init longest (fun k ->
            List.filter_map
              (fun g -> if k < Array.length g then Some g.(k) else None)
              (Array.to_list (shuffle r groups)))))

(* Every distinct request of one kind, grouped by source and interleaved:
   a "new key" is the next unused entry, so which sources the new keys
   compile, and so what a miss costs, barely depends on the seed. *)
let keyspace r kind =
  let compile (src, ret) =
    List.concat_map (fun alus ->
    List.concat_map (fun gprs ->
    List.map (fun stages ->
      let cfg =
        { Config.default with
          Config.n_alus = alus; n_gprs = gprs; pipeline_stages = stages }
      in
      ( P.Compile
          { P.c_config = cfg; c_source = src; c_opt = Epic.Toolchain.O1;
            c_predication = true; c_unroll = Epic.Toolchain.default_unroll;
            c_fuel = None },
        Ret (m32 ret) ))
      [ 2; 3; 4 ]) [ 32; 48; 64 ]) [ 1; 2; 3; 4 ]
  in
  let fault (src, ret) =
    List.concat_map (fun alus ->
    List.init 64 (fun k ->
      ( P.Fault_campaign
          { P.fc_config = Config.with_alus alus; fc_source = src; fc_seed = k + 1;
            fc_runs = 4; fc_targets = Epic.Fault.all_targets; fc_fuel_factor = 4 },
        Golden (m32 ret, 4 * List.length Epic.Fault.all_targets) )))
      [ 2; 4 ]
  in
  let explore (src, _) =
    List.filter_map
      (fun m ->
        let alus = List.filter (fun a -> m land (1 lsl (a - 1)) <> 0) [ 1; 2; 3; 4 ] in
        if alus = [] then None
        else
          Some
            ( P.Explore_slice { P.ex_source = src; ex_alus = alus; ex_issues = [ 4 ] },
              Points (List.length alus) ))
      (List.init 16 Fun.id)
  in
  let simulate =
    List.init 4096 (fun _ ->
        let a = 1 + below r 4000 and b = 1 + below r 4000 in
        ( P.Simulate
            { P.s_config = Config.default; s_asm = gcd_asm a b; s_fuel = None;
              s_mem_bytes = 65536 },
          Ret (gcd a b) ))
  in
  interleave r
    (match kind with
     | Compile ->
       List.map compile
         [ sha 64; sha 128; sha 192; aes 1; aes 2; aes 3; dct 8 8; dct 16 8;
           dct 8 16; dct 16 16; dijkstra 6; dijkstra 8; dijkstra 10; dijkstra 12 ]
     | Simulate -> [ simulate ]
     | Fault -> List.map fault [ sha 64; aes 1; dct 8 8; dijkstra 6 ]
     | Explore ->
       List.map explore
         [ sha 64; sha 128; aes 1; dct 8 8; dct 16 8; dijkstra 6; dijkstra 8;
           dijkstra 10 ])

(* [n] requests: exactly 60% compile, 20% simulate, 10% small fault
   campaigns and 10% explore-slice, in a seeded order.  Exactly a quarter
   of each kind's requests, at seeded positions, are new keys; the others
   repeat an earlier key of their kind, drawn Zipf-like (the k-th key
   seen with probability ~ 1/(k+1)), so popular keys are requested many
   times.  Exact counts keep the cost of a stream from depending on the
   seed.  Request ids number the distinct keys: repeats of one key are
   the identical line and must get identical bytes. *)
let serve_mix ~seed n =
  let r = rng ~seed ~salt:5 in
  let kinds = [| Compile; Simulate; Fault; Explore |] in
  let counts = [| n - (4 * n / 10); 2 * n / 10; n / 10; n / 10 |] in
  let order =
    shuffle r (Array.concat (Array.to_list (Array.mapi (fun k c -> Array.make c k) counts)))
  in
  (* The first request of a kind is always new. *)
  let is_new =
    Array.map
      (fun c ->
        let rest = shuffle r (Array.init (max 0 (c - 1)) (fun i -> i < ((c + 3) / 4) - 1)) in
        Array.append [| true |] rest)
      counts
  in
  let spaces = Array.map (keyspace r) kinds in
  let seen = Array.map (fun _ -> Hashtbl.create 64) kinds in
  let taken = Array.make (Array.length kinds) 0 in
  let next_id = ref 0 in
  let fresh k =
    let n_seen = Hashtbl.length seen.(k) in
    let rq, expect = spaces.(k).(n_seen mod Array.length spaces.(k)) in
    let line = P.to_line { P.rq_id = Some !next_id; rq_deadline_ms = None; rq_op = rq } in
    incr next_id;
    let req = { rq_op = kinds.(k); rq_line = line; rq_expect = expect } in
    Hashtbl.replace seen.(k) n_seen req;
    req
  in
  List.map
    (fun k ->
      let t = taken.(k) in
      taken.(k) <- t + 1;
      if is_new.(k).(t) then fresh k
      else
        let n_seen = Hashtbl.length seen.(k) in
        let idx = int_of_float (Float.pow (float_of_int n_seen) (uniform r)) - 1 in
        Hashtbl.find seen.(k) (max 0 (min (n_seen - 1) idx)))
    (Array.to_list order)

(* Seeded streaming request generator.

   Every connection draws its requests from its own split [Rng] stream,
   one frame at a time: nothing is pre-rendered beyond the hot-repeat
   key set, so a 5 000-vertex workload costs one frame of memory, not
   a plan.  Re-creating a stream with the same (workload, seed, conns,
   conn) yields the same ops in the same order — the checker relies on
   that to regenerate every request it compares against. *)

module Json = Tlp_util.Json_out
module Rng = Tlp_util.Rng
module Protocol = Tlp_server.Protocol
module Client = Tlp_client.Client
module Ksweep = Tlp_engine.Ksweep
module Incremental = Tlp_core.Incremental

type workload = Cold_small | Hot_repeat | Large_solve | Drift

let workloads =
  [
    ("cold-small", Cold_small);
    ("hot-repeat", Hot_repeat);
    ("large-solve", Large_solve);
    ("drift", Drift);
  ]

let workload_of_string s = List.assoc_opt s workloads

let workload_name w =
  fst (List.find (fun (_, w') -> w' = w) workloads)

type inst =
  | Chain of { alpha : int array; beta : int array }
  | Tree of { weights : int array; parents : (int * int) array }

type request =
  | Partition of {
      inst : inst;
      k : int;
      algorithm : Protocol.partition_algorithm;
    }
  | Sweep of {
      alpha : int array;
      beta : int array;
      ks : int list;
      algorithm : Ksweep.algorithm;
    }
  | Open of { session : string; chain : Tlp_graph.Chain.t }
      (** [chain] is the stream's tracked chain, like [Resolve]'s *)
  | Update of {
      session : string;
      deltas : Incremental.delta list;
      version : int;  (** the session version this batch produces *)
    }
  | Resolve of {
      session : string;
      k : int;
      chain : Tlp_graph.Chain.t;
          (** the chain the stream tracks; its weight arrays are updated
              in place as later ops are drawn *)
    }

type op = {
  conn : int;
  seq : int;  (** position in the connection's stream, from 0 *)
  meth : string;
  request : request;
  key : int;  (** hot-repeat key index; [-1] on other workloads *)
  id : Json.t;  (** the request id on the wire *)
  traced : bool;
  wire : string;
      (** v1: the request line without its newline; v2: the whole
          length-prefixed frame *)
}

let framing workload ~conn : Client.proto =
  match workload with
  | Cold_small -> Client.V1
  | Hot_repeat -> if conn mod 2 = 0 then Client.V1 else Client.V2
  | Large_solve | Drift -> Client.V2

(* ---------- rendering ---------- *)

let ints a = Json.List (Array.to_list (Array.map (fun x -> Json.Int x) a))

let chain_json alpha beta =
  Json.Obj
    [ ("kind", Json.String "chain"); ("alpha", ints alpha); ("beta", ints beta) ]

let inst_json = function
  | Chain { alpha; beta } -> chain_json alpha beta
  | Tree { weights; parents } ->
      Json.Obj
        [
          ("kind", Json.String "tree");
          ("weights", ints weights);
          ( "parents",
            Json.List
              (Array.to_list
                 (Array.map
                    (fun (p, c) -> Json.List [ Json.Int p; Json.Int c ])
                    parents)) );
        ]

let meth_of = function
  | Partition _ -> "partition"
  | Sweep _ -> "sweep"
  | Open _ -> "open"
  | Update _ -> "update"
  | Resolve _ -> "resolve"

let params_of = function
  | Partition { inst; k; algorithm } ->
      Json.Obj
        [
          ("instance", inst_json inst);
          ("k", Json.Int k);
          ( "algorithm",
            Json.String (Protocol.partition_algorithm_string algorithm) );
        ]
  | Sweep { alpha; beta; ks; algorithm } ->
      Json.Obj
        [
          ("instance", chain_json alpha beta);
          ("k_values", Json.List (List.map (fun k -> Json.Int k) ks));
          ( "algorithm",
            Json.String
              (match algorithm with
              | Ksweep.Hitting -> "hitting"
              | Ksweep.Deque -> "deque") );
        ]
  | Open { session; chain } ->
      Json.Obj
        [
          ("instance", chain_json chain.Tlp_graph.Chain.alpha chain.Tlp_graph.Chain.beta);
          ("session", Json.String session);
        ]
  | Update { session; deltas; _ } ->
      Json.Obj
        [
          ("session", Json.String session);
          ( "deltas",
            Json.List
              (List.map
                 (function
                   | Incremental.Vertex (i, d) ->
                       Json.List [ Json.String "vertex"; Json.Int i; Json.Int d ]
                   | Incremental.Edge (j, d) ->
                       Json.List [ Json.String "edge"; Json.Int j; Json.Int d ])
                 deltas) );
        ]
  | Resolve { session; k; _ } ->
      Json.Obj
        [
          ("session", Json.String session);
          ("k", Json.Int k);
          ("algorithm", Json.String "bandwidth");
        ]

let encode proto ~id ~trace request =
  let meth = meth_of request and params = params_of request in
  match (proto : Client.proto) with
  | Client.V1 -> Client.request_line ~id ~trace ~meth ~params ()
  | Client.V2 -> (
      match Tlp_client.Frame.encode_request ~id ~trace ~meth ~params () with
      | Ok frame -> frame
      | Error msg -> invalid_arg ("perfbench: v2 encode: " ^ msg))

(* ---------- instance shapes ---------- *)

let uniform rng lo hi = Rng.int_in rng lo hi

let random_chain rng ~n ~max_w =
  let alpha = Array.init n (fun _ -> uniform rng 1 max_w) in
  let beta = Array.init (n - 1) (fun _ -> uniform rng 1 max_w) in
  (alpha, beta)

(* Uniform random recursive tree: vertex i+1 hangs off a uniformly
   drawn earlier vertex. *)
let random_tree rng ~n ~max_w =
  let weights = Array.init n (fun _ -> uniform rng 1 max_w) in
  let parents =
    Array.init (n - 1) (fun i -> (Rng.int rng (i + 1), uniform rng 1 max_w))
  in
  Tree { weights; parents }

(* A heavy vertex every 100 on a light background: the drift shape on
   which incremental repair beats a rescan. *)
let spiky_chain rng ~n =
  let alpha =
    Array.init n (fun i ->
        if i mod 100 = 0 then uniform rng 5_000 6_000 else uniform rng 1 9)
  in
  let beta = Array.init (n - 1) (fun _ -> uniform rng 1 20) in
  (alpha, beta)

(* ---------- workload parameters ---------- *)

let cold_n = 128
let hot_n = 2_000
let hot_instances = 32
let hot_keys = 128
let large_n = 5_000
let drift_n = 50_000
let drift_k = 20_000
let drift_deltas = 3

(* Requests per connection run before timing starts (and inside
   [setup_s]).  Hot-repeat additionally fills its share of the key
   set first. *)
let warmup_ops = function
  | Cold_small -> 200
  | Hot_repeat -> 64
  | Large_solve -> 4
  | Drift -> 1 + (2 * 4)

(* The hot-repeat key set: 32 chains x {bandwidth, bottleneck} x 2 Ks,
   drawn from the seed's shared stream so every connection sees the
   same 128 keys.  Key [i] has Zipf rank [i + 1]; its K and algorithm
   follow from [i] alone, so the hottest keys carry answers of the same
   size under every seed. *)
let hot_key_set rng =
  let chains =
    Array.init hot_instances (fun _ -> random_chain rng ~n:hot_n ~max_w:99)
  in
  Array.init hot_keys (fun i ->
      let alpha, beta = chains.(i / 4) in
      let k = if i / 2 mod 2 = 0 then 500 else 1_000 in
      let algorithm =
        if i mod 2 = 0 then Protocol.Bandwidth else Protocol.Bottleneck
      in
      Partition { inst = Chain { alpha; beta }; k; algorithm })

(* Zipf(1) over ranks 1..n: cumulative weights for inverse-CDF draws. *)
let zipf_cdf n =
  let w = Array.init n (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw rng cdf =
  let u = Rng.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* ---------- streams ---------- *)

type stream = { next : trace:bool -> op }

let conn_rng ~seed ~conns ~conn =
  let master = Rng.create seed in
  let shared = Rng.split master in
  let per_conn = Rng.split_n master conns in
  (shared, per_conn.(conn))

let session_name conn = Printf.sprintf "pb-drift-c%d" conn

let stream workload ~seed ~conns ~conn =
  let shared, rng = conn_rng ~seed ~conns ~conn in
  let proto = framing workload ~conn in
  let seq = ref 0 in
  let make ?(key = -1) ?id ?wire ~trace request =
    let s = !seq in
    incr seq;
    let id = Option.value id ~default:(Json.Int s) in
    let wire =
      match wire with Some w -> w | None -> encode proto ~id ~trace request
    in
    { conn; seq = s; meth = meth_of request; request; key; id; traced = trace;
      wire }
  in
  match workload with
  | Cold_small ->
      let next ~trace =
        let alpha, beta = random_chain rng ~n:cold_n ~max_w:99 in
        let k = 200 + Rng.int rng 800 in
        let algorithm =
          if Rng.bool rng then Protocol.Bandwidth else Protocol.Bottleneck
        in
        make ~trace (Partition { inst = Chain { alpha; beta }; k; algorithm })
      in
      { next }
  | Hot_repeat ->
      let keys = hot_key_set shared in
      let cdf = zipf_cdf hot_keys in
      (* Key frames are rendered once per (key, traced) and resent with
         the key index as the request id. *)
      let frames = Hashtbl.create 256 in
      let frame key trace =
        match Hashtbl.find_opt frames (key, trace) with
        | Some f -> f
        | None ->
            let f = encode proto ~id:(Json.Int key) ~trace keys.(key) in
            Hashtbl.replace frames (key, trace) f;
            f
      in
      let fill = ref conn in
      let next ~trace =
        let key =
          if !fill < hot_keys then begin
            let k = !fill in
            fill := !fill + conns;
            k
          end
          else zipf_draw rng cdf
        in
        make ~key ~id:(Json.Int key) ~wire:(frame key trace) ~trace keys.(key)
      in
      { next }
  | Large_solve ->
      let next ~trace =
        let s = !seq in
        let request =
          match s mod 4 with
          | 0 ->
              let alpha, beta = random_chain rng ~n:large_n ~max_w:100 in
              Partition
                {
                  inst = Chain { alpha; beta };
                  k = 500 + Rng.int rng 1_500;
                  algorithm = Protocol.Bandwidth;
                }
          | 1 ->
              let alpha, beta = random_chain rng ~n:large_n ~max_w:100 in
              let ks = List.init 8 (fun i -> 200 + (250 * i) + Rng.int rng 100) in
              let algorithm =
                if s / 4 mod 2 = 0 then Ksweep.Hitting else Ksweep.Deque
              in
              Sweep { alpha; beta; ks; algorithm }
          | 2 ->
              Partition
                {
                  inst = random_tree rng ~n:large_n ~max_w:100;
                  k = 500 + Rng.int rng 1_500;
                  algorithm = Protocol.Bottleneck;
                }
          | _ ->
              Partition
                {
                  inst = random_tree rng ~n:large_n ~max_w:100;
                  k = 500 + Rng.int rng 1_500;
                  algorithm = Protocol.Procmin;
                }
        in
        make ~trace request
      in
      { next }
  | Drift ->
      let session = session_name conn in
      (* The walk updates the chain's own weight arrays in place, so a
         resolve's reference answer needs no O(n) copy; every step keeps
         them positive, the chain's invariant. *)
      let chain =
        let alpha, beta = spiky_chain rng ~n:drift_n in
        Tlp_graph.Chain.make ~alpha ~beta
      in
      let alpha = chain.Tlp_graph.Chain.alpha and beta = chain.Tlp_graph.Chain.beta in
      let version = ref 0 in
      (* A positive random walk: a step that would take a weight to 0 or
         below is mirrored, so every batch the server sees is valid. *)
      let step () =
        let d = (if Rng.bool rng then 1 else -1) * uniform rng 1 5 in
        if Rng.bool rng then begin
          let i = Rng.int rng drift_n in
          let d = if alpha.(i) + d < 1 then -d else d in
          alpha.(i) <- alpha.(i) + d;
          Incremental.Vertex (i, d)
        end
        else begin
          let j = Rng.int rng (drift_n - 1) in
          let d = if beta.(j) + d < 1 then -d else d in
          beta.(j) <- beta.(j) + d;
          Incremental.Edge (j, d)
        end
      in
      let next ~trace =
        let s = !seq in
        let request =
          if s = 0 then
            Open { session; chain }
          else if s mod 2 = 1 then begin
            let deltas = List.init drift_deltas (fun _ -> step ()) in
            incr version;
            Update { session; deltas; version = !version }
          end
          else Resolve { session; k = drift_k; chain }
        in
        make ~trace request
      in
      { next }

(* Hex MD5 over the first [ops] untraced frames of every connection:
   the replay identity of (workload, seed, conns), independent of how
   many requests a timed run gets through. *)
let replay_digest ?(ops = 32) workload ~seed ~conns =
  let ctx = Buffer.create 4096 in
  for conn = 0 to conns - 1 do
    let s = stream workload ~seed ~conns ~conn in
    for _ = 1 to ops do
      Buffer.add_string ctx (Digest.string (s.next ~trace:false).wire)
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents ctx))

(* Ops per connection sent inside set-up, before timing: hot-repeat's
   share of the key-set fill plus the workload's warmup. *)
let setup_ops workload ~conns ~conn =
  let fill =
    match workload with
    | Hot_repeat -> (hot_keys - conn + conns - 1) / conns
    | Cold_small | Large_solve | Drift -> 0
  in
  fill + warmup_ops workload

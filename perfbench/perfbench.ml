(* perfbench: the serving benchmark.

   Usage (through perfbench/run.py, which builds the binaries first):

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               --server EXE --out DIR --nproc N --clk-tck HZ [--commit C]

   One run spawns [tlp_serve serve --port 0 --jobs <nproc>] as a child
   process, sets it up five times (spawn, listening line, [health],
   the workload's warmup) and reports the median set-up time, then
   drives the kept server from [nproc] closed-loop connections for S
   seconds.  Afterwards every response is checked against the
   in-process reference.  The last stdout line is the result object.

   [--trace 0] measures the end-to-end metrics with tracing off.
   [--trace 1] splits the S seconds into an untraced and a traced half;
   the traced half's requests carry [trace: true], are replayed through
   each layer's public functions, and give the per-layer metrics.  The
   spans are written to DIR as JSON lines. *)

module Json = Tlp_util.Json_out
module Stats = Tlp_util.Stats
open Tlp_perfbench

let setups = 5
let quiet_steal = 0.02
let replay_budget = 1_500

type args = {
  workload : Gen.workload;
  seed : int;
  seconds : float;
  trace : bool;
  server : string;
  out : string;
  nproc : int;
  clk_tck : float;
  commit : string;
}

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
     --server EXE --out DIR --nproc N --clk-tck HZ [--commit C]";
  exit 2

let parse_args () =
  let tbl = Hashtbl.create 16 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload =
    match Gen.workload_of_string (get "workload") with Some w -> w | None -> usage ()
  in
  {
    workload;
    seed = int "seed";
    seconds = float_of_int (max 1 (int "seconds"));
    trace = int "trace" <> 0;
    server = get "server";
    out = get "out";
    nproc = max 1 (int "nproc");
    clk_tck = float_of_int (int "clk-tck");
    commit = Option.value (Hashtbl.find_opt tbl "commit") ~default:"unknown";
  }

let median = function
  | [||] -> 0.0
  | a -> Stats.percentile a 50.0

let pct a p = if Array.length a = 0 then 0.0 else Stats.percentile a p

let say fmt = Printf.ksprintf (fun s -> print_endline s) fmt

let metric name unit value = (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])

(* ---------- set-up ---------- *)

type kept = {
  server : Drive.server;
  conns : Drive.conn array;
  warmup : Drive.phase;
  setup_s : float array;
  setup_failed : int;
}

let set_up a ~conns_n ~log =
  let warm_counts =
    Array.init conns_n (fun conn -> Gen.setup_ops a.workload ~conns:conns_n ~conn)
  in
  let one () =
    let t0 = Spans.now () in
    let server = Drive.spawn ~exe:a.server ~jobs:conns_n ~log in
    Drive.health server.Drive.port;
    let conns = Drive.connect a.workload ~seed:a.seed ~conns:conns_n ~port:server.Drive.port in
    let warmup =
      Drive.run_phase a.workload ~conns ~stop:(Drive.Ops warm_counts) ~trace:false
    in
    (Spans.now () -. t0, server, conns, warmup)
  in
  let times = Array.make setups 0.0 and failed = ref 0 in
  let rec loop i =
    let dt, server, conns, warmup = one () in
    times.(i) <- dt;
    if i + 1 < setups then begin
      Array.iteri
        (fun c samples ->
          Array.iter
            (fun s -> if not (Drive.ok_head conns.(c).Drive.proto s) then incr failed)
            samples)
        warmup.Drive.samples;
      Drive.disconnect conns;
      Drive.stop server;
      loop (i + 1)
    end
    else { server; conns; warmup; setup_s = times; setup_failed = !failed }
  in
  loop 0

(* ---------- per-layer metrics from the spans ---------- *)

let layer_spans =
  [
    "protocol.parse_frame"; "frame.decode_request"; "protocol.instance_digest";
    "cache.find"; "cache.add"; "util.json_render"; "util.binval_render";
    "protocol.render_ok"; "frame.encode_ok"; "core.bandwidth"; "core.bottleneck";
    "core.procmin"; "engine.ksweep"; "session.update"; "session.resolve";
  ]

let layer_metrics spans ~allocs ~before ~after ~requests ~rps_untraced ~rps_traced =
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun (s : Spans.span) ->
      Hashtbl.replace by_name s.Spans.name
        ((Spans.duration s *. 1e6)
        :: Option.value (Hashtbl.find_opt by_name s.Spans.name) ~default:[]))
    spans;
  let durations name =
    Array.of_list (Option.value (Hashtbl.find_opt by_name name) ~default:[])
  in
  let self = Spans.self_times spans in
  let residual =
    List.filter_map
      (fun (s : Spans.span) ->
        if s.Spans.parent < 0 then Some (self s *. 1e6) else None)
      spans
    |> Array.of_list
  in
  let queue = durations "server.queue" in
  let delta p = Drive.num after p -. Drive.num before p in
  let per_req x = if requests > 0 then x /. float_of_int requests else 0.0 in
  let lookups = delta [ "cache"; "hits" ] +. delta [ "cache"; "misses" ] in
  let counter name = per_req (delta [ "metrics"; "counters"; name ]) in
  let resolves = Drive.session_sum after "resolves" -. Drive.session_sum before "resolves" in
  let incremental =
    Drive.session_sum after "resolves_incremental"
    -. Drive.session_sum before "resolves_incremental"
  in
  [
    metric "server.accept_us" "us" (median (durations "server.accept"));
    metric "server.queue_us_p50" "us" (median queue);
    metric "server.queue_us_p99" "us" (pct queue 99.0);
    metric "server.solve_us" "us" (median (durations "server.solve"));
    metric "wire.residual_us" "us" (median residual);
  ]
  @ List.map
      (fun name -> metric (name ^ "_us") "us" (median (durations name)))
      layer_spans
  @ [
      metric "alloc.words_per_req" "words" (median (Array.of_list allocs));
      metric "cache.hit_ratio" "ratio"
        (if lookups > 0.0 then delta [ "cache"; "hits" ] /. lookups else 0.0);
      metric "cache.evictions_per_req" "count" (per_req (delta [ "cache"; "evictions" ]));
      metric "solver.primes_found" "count" (counter "primes_found");
      metric "solver.hitting_search_steps" "count" (counter "hitting_search_steps");
      metric "solver.proc_min_vertex" "count" (counter "proc_min_vertex");
      metric "solver.bottleneck_union" "count" (counter "bottleneck_union");
      metric "session.incremental_frac" "ratio"
        (if resolves > 0.0 then incremental /. resolves else 0.0);
      metric "trace.overhead_frac" "ratio"
        (if rps_untraced > 0.0 then 1.0 -. (rps_traced /. rps_untraced) else 0.0);
    ]

(* Median time of a fixed in-process solve, in ms: the host's speed
   at the moment, printed in the fingerprint so that a run on a slowed
   host can be told from a slower program. *)
let calibration_ms () =
  let alpha, beta = Gen.random_chain (Tlp_util.Rng.create 0) ~n:20_000 ~max_w:100 in
  let instance = Check.instance_of (Gen.Chain { alpha; beta }) in
  let once () =
    let t0 = Spans.now () in
    ignore (Check.partition_doc instance ~k:1_000 ~algorithm:Tlp_server.Protocol.Bandwidth : Json.t);
    (Spans.now () -. t0) *. 1e3
  in
  median (Array.init 9 (fun _ -> once ()))

(* ---------- main ---------- *)

let () =
  let a = parse_args () in
  let name = Gen.workload_name a.workload in
  let conns_n = min a.nproc 8 in
  (try Unix.mkdir a.out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let log = Filename.concat a.out (Printf.sprintf "server-%s.log" name) in
  let load_before = Drive.loadavg () and calib_before = calibration_ms () in
  say "# workload %s seed %d replay_digest %s" name a.seed
    (Gen.replay_digest a.workload ~seed:a.seed ~conns:conns_n);
  let k = set_up a ~conns_n ~log in
  let pid = k.server.Drive.pid and port = k.server.Drive.port in
  let measure ~trace seconds =
    let before = Drive.stats port in
    let phase =
      Drive.run_phase a.workload ~conns:k.conns
        ~window:0.25
        ~probe:(fun () -> (Drive.cpu_ticks pid, Drive.steal_ticks ()))
        ~stop:(Drive.Until (Spans.now () +. seconds))
        ~trace
    in
    (phase, before, Drive.stats port)
  in
  let phases =
    if a.trace then
      let untraced = measure ~trace:false (a.seconds /. 2.0) in
      [ untraced; measure ~trace:true (a.seconds /. 2.0) ]
    else [ measure ~trace:false a.seconds ]
  in
  Drive.disconnect k.conns;
  let rss_mb = float_of_int (Drive.vm_hwm_kb pid) /. 1024.0 in
  Drive.stop k.server;
  let load_after = Drive.loadavg () and calib_after = calibration_ms () in
  (* Check every response the kept server sent, one domain per
     connection; the traced phase's requests are replayed and spanned. *)
  let stores = Array.init conns_n (fun conn -> Spans.create ~conn) in
  let reports =
    Array.init conns_n (fun conn ->
        let samples =
          Array.concat
            (k.warmup.Drive.samples.(conn)
            :: List.map (fun (p, _, _) -> p.Drive.samples.(conn)) phases)
        in
        Domain.spawn (fun () ->
            Check.check_conn
              ?spans:(if a.trace then Some stores.(conn) else None)
              ~replay_budget a.workload ~seed:a.seed ~conns:conns_n ~conn samples))
    |> Array.map Domain.join
  in
  let bad = Hashtbl.create 16 in
  Array.iteri
    (fun conn r ->
      List.iter (fun (seq, _) -> Hashtbl.replace bad (conn, seq) ()) r.Check.failures)
    reports;
  (* (completion time, round trip in us, failed) of a phase's requests *)
  let trips (p : Drive.phase) =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun conn samples ->
              Array.map
                (fun (s : Check.sample) ->
                  (s.Check.t1, (s.Check.t1 -. s.Check.t0) *. 1e6, Hashtbl.mem bad (conn, s.Check.seq)))
                samples)
            p.Drive.samples))
  in
  let failures t = Array.fold_left (fun acc (_, _, f) -> if f then acc + 1 else acc) 0 t in
  let rps_of (p : Drive.phase) =
    let t = trips p in
    float_of_int (Array.length t - failures t) /. (p.Drive.ended -. p.Drive.started)
  in
  (* Each window between two probes gives its own throughput, median
     round trip and server CPU per request.  The run reports the median
     over the windows in which the hypervisor stole at most
     [quiet_steal] of the host's CPU time — or, when fewer than a
     quarter of them are that quiet, over the least-stolen quarter.
     Stolen time slows the server for reasons outside the program; a
     burst of it then moves windows that are left out rather than the
     result. *)
  let windowed (p : Drive.phase) =
    let t = trips p in
    let w = Array.length p.Drive.probes - 1 in
    let window i =
      let a0, (c0, s0) = p.Drive.probes.(i) and a1, (c1, s1) = p.Drive.probes.(i + 1) in
      let inside = List.filter (fun (t1, _, _) -> t1 >= a0 && t1 < a1) (Array.to_list t) in
      let n = List.length inside in
      let ok = List.length (List.filter (fun (_, _, f) -> not f) inside) in
      ( float_of_int (s1 - s0) /. a.clk_tck /. (a1 -. a0) /. float_of_int a.nproc,
        float_of_int ok /. (a1 -. a0),
        pct (Array.of_list (List.map (fun (_, r, _) -> r) inside)) 50.0,
        float_of_int (c1 - c0) /. a.clk_tck *. 1e6 /. float_of_int (max 1 n) )
    in
    let ws = Array.init w window in
    say "# windows rps %s; host steal %s"
      (String.concat " " (Array.to_list (Array.map (fun (_, r, _, _) -> Printf.sprintf "%.0f" r) ws)))
      (String.concat " " (Array.to_list (Array.map (fun (st, _, _, _) -> Printf.sprintf "%.2f" st) ws)));
    let steals = Array.map (fun (st, _, _, _) -> st) ws in
    Array.sort compare steals;
    let cut = Float.max quiet_steal steals.((w + 3) / 4 - 1) in
    let chosen =
      Array.of_list (List.filter (fun (st, _, _, _) -> st <= cut) (Array.to_list ws))
    in
    let per f = median (Array.map f chosen) in
    (per (fun (_, r, _, _) -> r), per (fun (_, _, m, _) -> m), per (fun (_, _, _, c) -> c))
  in
  let main_phase, before, after = List.hd (List.rev phases) in
  let main_trips = trips main_phase in
  let correct, attempted, failed =
    Check.verdict reports ~setup_failed:k.setup_failed ~warmup:k.warmup.Drive.samples
      ~timed:(List.map (fun (p, _, _) -> p.Drive.samples) phases)
  in
  let rps, p50, server_cpu_us = windowed main_phase in
  (* ---- host fingerprint, regime and per-method counts: every run ---- *)
  say "# host %s"
    (Json.to_string
       (Json.Obj
          [
            ("nproc", Json.Int a.nproc);
            ("connections", Json.Int conns_n);
            ("ocaml", Json.String Sys.ocaml_version);
            ("commit", Json.String a.commit);
            ("server_flags", Json.String (String.concat " " (Drive.server_args ~jobs:conns_n)));
            ("loadavg_before", Json.String load_before);
            ("loadavg_after", Json.String load_after);
            ("calibration_ms_before", Json.Float calib_before);
            ("calibration_ms_after", Json.Float calib_after);
          ]));
  let delta p = Drive.num after p -. Drive.num before p in
  let lookups = delta [ "cache"; "hits" ] +. delta [ "cache"; "misses" ] in
  let ratio x y = if y > 0.0 then Json.Float (x /. y) else Json.Null in
  let resolves = Drive.session_sum after "resolves" -. Drive.session_sum before "resolves" in
  say "# regime %s"
    (Json.to_string
       (Json.Obj
          [
            ("phase", Json.String (if a.trace then "traced" else "untraced"));
            ("cache_miss_ratio", ratio (delta [ "cache"; "misses" ]) lookups);
            ("cache_hit_ratio", ratio (delta [ "cache"; "hits" ]) lookups);
            ( "cross_framing_share",
              ratio (float_of_int main_phase.Drive.cross)
                (float_of_int (Drive.count main_phase)) );
            ( "session_incremental_frac",
              ratio
                (Drive.session_sum after "resolves_incremental"
                -. Drive.session_sum before "resolves_incremental")
                resolves );
            ( "methods",
              Json.Obj (List.map (fun (m, n) -> (m, Json.Int n)) main_phase.Drive.methods) );
            ( "per_connection",
              Json.List
                (Array.to_list
                   (Array.map (fun s -> Json.Int (Array.length s)) main_phase.Drive.samples)) );
          ]));
  List.iteri
    (fun conn r ->
      List.iter
        (fun (seq, reason) -> say "# mismatch conn %d seq %d: %s" conn seq reason)
        (List.filteri (fun i _ -> i < 20) r.Check.failures))
    (Array.to_list reports);
  say "# checked %d responses (set-up kept + timed), %d replayed in-process"
    (Array.fold_left (fun acc r -> acc + Array.length r) 0 k.warmup.Drive.samples
    + List.fold_left (fun acc (p, _, _) -> acc + Drive.count p) 0 phases)
    (Array.fold_left (fun acc r -> acc + r.Check.replayed) 0 reports);
  let setup_s = median k.setup_s in
  say "# setups %s s"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") k.setup_s)));
  (* A plain p99 over the last timed phase's round trips; the report
     states how many samples lie beyond it. *)
  let round_trips = Array.map (fun (_, r, _) -> r) main_trips in
  let p99 = pct round_trips 99.0 in
  let beyond = Array.fold_left (fun acc r -> if r > p99 then acc + 1 else acc) 0 round_trips in
  let fail_frac = float_of_int failed /. float_of_int (max 1 attempted) in
  say
    "# e2e setup_s=%.4f s  rps=%.1f req/s  p50_us=%.1f us  p99_us=%.1f us (%d \
     samples, %d beyond it)  fail_frac=%.5f ratio  server_cpu_us_per_req=%.1f us  \
     server_rss_mb=%.1f MB"
    setup_s rps p50 p99 (Array.length round_trips) beyond fail_frac server_cpu_us rss_mb;
  let metrics =
    if a.trace then begin
      let spans = Spans.all (Array.to_list stores) in
      let path = Filename.concat a.out (Printf.sprintf "spans-%s-seed%d.jsonl" name a.seed) in
      Spans.write path spans;
      say "# spans %d written to %s" (List.length spans) path;
      let untraced, _, _ = List.hd phases in
      layer_metrics spans
        ~allocs:(List.concat_map (fun r -> r.Check.alloc_words) (Array.to_list reports))
        ~before ~after ~requests:(Drive.count main_phase) ~rps_untraced:(rps_of untraced)
        ~rps_traced:(rps_of main_phase)
    end
    else
      [
        metric "setup_s" "s" setup_s;
        metric "rps" "req/s" rps;
        metric "p50_us" "us" p50;
        metric "ok_frac" "ratio" (1.0 -. fail_frac);
        metric "server_cpu_us_per_req" "us" server_cpu_us;
        metric "server_rss_mb" "MB" rss_mb;
      ]
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj metrics);
          ]))

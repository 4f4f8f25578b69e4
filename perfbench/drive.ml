(* The server process, what the benchmark reads about it from outside
   ([/proc/<pid>] and the [stats] RPC), and the closed-loop load phases.

   Each connection runs on its own domain and sends its next request
   only after the previous reply has arrived: a caller of a
   partitioner waits for the cut before it launches work. *)

module Json = Tlp_util.Json_out
module Rng = Tlp_util.Rng
module Client = Tlp_client.Client

(* ---------- server process ---------- *)

type server = { pid : int; port : int; out : in_channel }

let server_args ~jobs = [ "serve"; "--port"; "0"; "--jobs"; string_of_int jobs ]

(* Servers not yet stopped; an exit on an error path still takes them
   down and waits for them. *)
let live = ref []

let spawn ~exe ~jobs ~log =
  let r, w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: server_args ~jobs))
      Unix.stdin w err
  in
  Unix.close w;
  Unix.close err;
  live := pid :: !live;
  let out = Unix.in_channel_of_descr r in
  match input_line out with
  | line -> (
      (* "tlp.rpc/v1 listening on 127.0.0.1:<port>" *)
      match String.rindex_opt line ':' with
      | Some i ->
          {
            pid;
            port = int_of_string (String.sub line (i + 1) (String.length line - i - 1));
            out;
          }
      | None -> failwith ("perfbench: unexpected server line: " ^ line))
  | exception End_of_file -> failwith "perfbench: server exited before listening"

let stop server =
  (try Unix.kill server.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] server.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        (try Unix.kill server.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] server.pid : int * Unix.process_status)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  live := List.filter (fun p -> p <> server.pid) !live;
  close_in_noerr server.out

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid : int * Unix.process_status)
          with Unix.Unix_error _ -> ())
        !live)

(* ---------- /proc ---------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime in clock ticks: fields 14 and 15 of /proc/<pid>/stat,
   counted after the parenthesised command name. *)
let cpu_ticks pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  int_of_string fields.(11) + int_of_string fields.(12)

let vm_hwm_kb pid =
  read_file (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
             Some (int_of_string (List.hd (String.split_on_char ' ' (String.trim v))))
         | _ -> None)
  |> Option.value ~default:0

(* Ticks the hypervisor stole from this host's CPUs, summed: the steal
   column of /proc/stat's first line. *)
let steal_ticks () =
  match
    List.filter (( <> ) "")
      (String.split_on_char ' '
         (List.hd (String.split_on_char '\n' (read_file "/proc/stat"))))
  with
  | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> int_of_string steal
  | _ -> 0

let loadavg () =
  match String.split_on_char ' ' (read_file "/proc/loadavg") with
  | a :: b :: c :: _ -> Printf.sprintf "%s %s %s" a b c
  | _ -> "?"

(* ---------- control RPCs ---------- *)

let control port f =
  let c = Client.create ~port ~default_deadline_ms:10_000 ~rng:(Rng.create 0) () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let call c meth =
  match Client.call c ~meth () with
  | Ok r -> r.Client.result
  | Error e -> failwith ("perfbench: " ^ meth ^ ": " ^ Client.error_to_string e)

let health port = control port (fun c -> ignore (call c "health" : Json.t))
let stats port = control port (fun c -> call c "stats")

let rec path doc = function
  | [] -> Some doc
  | k :: rest -> (
      match doc with
      | Json.Obj fields -> Option.bind (List.assoc_opt k fields) (fun d -> path d rest)
      | _ -> None)

let num doc p =
  match path doc p with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> 0.0

(* Sum of a per-session tally over the [stats] session list. *)
let session_sum doc field =
  match path doc [ "sessions"; "list" ] with
  | Some (Json.List l) -> List.fold_left (fun acc s -> acc +. num s [ field ]) 0.0 l
  | _ -> 0.0

(* ---------- closed-loop phases ---------- *)

type conn = {
  index : int;
  proto : Client.proto;
  client : Client.t;
  stream : Gen.stream;
}

let connect workload ~seed ~conns ~port =
  Array.init conns (fun index ->
      let proto = Gen.framing workload ~conn:index in
      {
        index;
        proto;
        client = Client.create ~port ~proto ~rng:(Rng.create index) ();
        stream = Gen.stream workload ~seed ~conns ~conn:index;
      })

let disconnect conns = Array.iter (fun c -> Client.close c.client) conns

type stop_at = Ops of int array | Until of float

type phase = {
  samples : Check.sample array array;  (** per connection, in send order *)
  started : float;
  ended : float;
  methods : (string * int) list;
  cross : int;  (** hot-repeat requests whose key the other framing filled *)
  probes : (float * (int * int)) array;
      (** [(time, probe ())] at the phase start and at every window
          boundary of a timed phase *)
}

(* [probe] is read at the start and every [window] seconds of an
   [Until] phase, on the calling domain while the connections run. *)
let run_phase ?(window = 1.0) ?(probe = fun () -> (0, 0)) workload ~conns ~stop ~trace =
  let nconns = Array.length conns in
  let started = Spans.now () in
  let probes = ref [ (started, probe ()) ] in
  let worker c () =
    let out = ref [] and methods = Hashtbl.create 8 and cross = ref 0 in
    let rec go n =
      let more =
        match stop with
        | Ops counts -> n < counts.(c.index)
        | Until t -> Spans.now () < t
      in
      if more then begin
        let op = c.stream.Gen.next ~trace in
        let t0 = Spans.now () in
        let r =
          match c.proto with
          | Client.V1 -> Client.round_trip c.client op.Gen.wire
          | Client.V2 -> Client.round_trip_frame c.client op.Gen.wire
        in
        let t1 = Spans.now () in
        let outcome =
          match r with
          | Ok raw -> Check.reply c.proto ~traced:trace raw
          | Error e -> Check.Lost (Client.error_to_string e)
        in
        out := { Check.seq = op.Gen.seq; traced = trace; t0; t1; outcome } :: !out;
        Hashtbl.replace methods op.Gen.meth
          (1 + Option.value (Hashtbl.find_opt methods op.Gen.meth) ~default:0);
        if op.Gen.key >= 0
           && Gen.framing workload ~conn:(op.Gen.key mod nconns) <> c.proto
        then incr cross;
        go (n + 1)
      end
    in
    go 0;
    (Array.of_list (List.rev !out), methods, !cross)
  in
  let domains = Array.map (fun c -> Domain.spawn (worker c)) conns in
  (match stop with
  | Until t ->
      let rec tick i =
        let at = started +. (float_of_int i *. window) in
        if at <= t +. 1e-6 then begin
          let wait = at -. Spans.now () in
          if wait > 0.0 then Unix.sleepf wait;
          probes := (Spans.now (), probe ()) :: !probes;
          tick (i + 1)
        end
      in
      tick 1
  | Ops _ -> ());
  let results = Array.map Domain.join domains in
  let ended = Spans.now () in
  let methods = Hashtbl.create 8 in
  Array.iter
    (fun (_, m, _) ->
      Hashtbl.iter
        (fun k v ->
          Hashtbl.replace methods k (v + Option.value (Hashtbl.find_opt methods k) ~default:0))
        m)
    results;
  {
    samples = Array.map (fun (s, _, _) -> s) results;
    started;
    ended;
    methods = List.sort compare (List.of_seq (Hashtbl.to_seq methods));
    cross = Array.fold_left (fun acc (_, _, x) -> acc + x) 0 results;
    probes = Array.of_list (List.rev !probes);
  }

let count phase = Array.fold_left (fun acc s -> acc + Array.length s) 0 phase.samples

(* A reply that is a success envelope, judged from its first bytes —
   the check for set-ups whose server is discarded before the full
   byte comparison. *)
let ok_head (proto : Client.proto) (s : Check.sample) =
  match s.outcome with
  | Check.Lost _ -> false
  | Check.Reply r -> (
      match proto with
      | Client.V1 -> Check.rfind r.head "\"ok\":true" <> None
      | Client.V2 -> String.length r.head > 0 && (r.head.[0] = '\001' || r.head.[0] = '\003'))

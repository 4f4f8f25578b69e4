module Bytebuf = Tlp_util.Bytebuf

let max_frame_bytes = 4 * 1024 * 1024

type wire = V1 | V2

(* A count that can be waited down to zero: the replies a connection
   owes, and the connections a daemon has open. *)
type count = { mutex : Mutex.t; zero : Condition.t; mutable n : int }

let count () = { mutex = Mutex.create (); zero = Condition.create (); n = 0 }

let up c =
  Mutex.lock c.mutex;
  c.n <- c.n + 1;
  Mutex.unlock c.mutex

let down c =
  Mutex.lock c.mutex;
  c.n <- c.n - 1;
  if c.n = 0 then Condition.broadcast c.zero;
  Mutex.unlock c.mutex

let wait_zero c =
  Mutex.lock c.mutex;
  while c.n > 0 do
    Condition.wait c.zero c.mutex
  done;
  Mutex.unlock c.mutex

type conn = {
  fd : Unix.file_descr;
  write_mutex : Mutex.t;
  wbuf : Bytebuf.t;
      (* the connection thread's reply buffer: grown to the
         connection's working set once, then reused per reply *)
  mutable wire : wire;
  mutable alive : bool;  (* peer still reachable for writes *)
  held : count;  (* replies owed before the connection may close *)
}

let wire conn = conn.wire

(* Blank v1 lines (all [String.trim] whitespace) are ignored. *)
let blank bytes len =
  let i = ref 0 in
  while !i < len && String.contains " \t\r\012" (Bytes.get bytes !i) do
    incr i
  done;
  !i = len

let conn_buffer conn =
  Bytebuf.clear conn.wbuf;
  conn.wbuf

(* Module-level recursion keeps the short-write retry loop free of a
   per-call ref. *)
let rec write_all fd bytes pos len =
  if len > 0 then begin
    let n = Unix.write fd bytes pos len in
    write_all fd bytes (pos + n) (len - n)
  end

let send conn buf =
  Mutex.lock conn.write_mutex;
  (try
     if conn.alive then
       write_all conn.fd (Bytebuf.unsafe_bytes buf) 0 (Bytebuf.length buf)
   with Unix.Unix_error _ -> conn.alive <- false);
  Mutex.unlock conn.write_mutex

let hold conn = up conn.held
let release conn = down conn.held

type t = {
  listener : Unix.file_descr;
  actual_port : int;
  stop_flag : bool Atomic.t;
  live : count;  (* open connections *)
  mutable accepter : Thread.t option;
  waited : bool Atomic.t;
}

let port t = t.actual_port
let stop t = Atomic.set t.stop_flag true
let stopping t = Atomic.get t.stop_flag

(* ---------- one connection ---------- *)

let connection_loop t ~frame ~error fd =
  let conn =
    {
      fd;
      write_mutex = Mutex.create ();
      wbuf = Bytebuf.create 4096;
      wire = V1;
      alive = true;
      held = count ();
    }
  in
  (* A short receive timeout turns blocking reads into periodic stop
     checks, so idle connections cannot stall the drain. *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.2
   with Unix.Unix_error _ -> ());
  (* Pooled read buffer: the socket reads straight into its backing
     store and the frame scans walk it in place, so a settled
     connection allocates nothing per request on the read side. *)
  let rbuf = Bytebuf.create 4096 in
  let negotiated = ref false in
  let overflow = ref false in
  let eof = ref false in
  (* v1: offset the newline scan already covered, so re-scans after a
     partial read don't retraverse the prefix. *)
  let scanned = ref 0 in
  let frame_overflow () =
    overflow := true;
    error conn
      (Protocol.bad_request
         (Printf.sprintf "frame exceeds %d bytes" max_frame_bytes))
  in
  (* Serve every complete v1 line in [rbuf]; keep the partial tail.  A
     line is checked against the limit before it is served, whether or
     not its newline has arrived.  The scan is bounded by the logical
     length — the backing store can hold stale bytes past it, so
     [Bytes.index_from] would be wrong. *)
  let rec process_v1 () =
    let bytes = Bytebuf.unsafe_bytes rbuf in
    let len = Bytebuf.length rbuf in
    let nl = ref !scanned in
    while !nl < len && Bytes.unsafe_get bytes !nl <> '\n' do
      incr nl
    done;
    if !nl > max_frame_bytes then frame_overflow ()
    else if !nl < len then begin
      if not (blank bytes !nl) then frame conn bytes ~pos:0 ~len:!nl;
      Bytebuf.shift_left rbuf ~pos:(!nl + 1);
      scanned := 0;
      process_v1 ()
    end
    else scanned := len
  in
  (* Serve every complete length-prefixed v2 frame in [rbuf]. *)
  let rec process_v2 () =
    let len = Bytebuf.length rbuf in
    if len >= 4 then begin
      let bytes = Bytebuf.unsafe_bytes rbuf in
      let flen = Int32.to_int (Bytes.get_int32_be bytes 0) land 0xffff_ffff in
      if flen > max_frame_bytes then frame_overflow ()
      else if len >= 4 + flen then begin
        frame conn bytes ~pos:4 ~len:flen;
        Bytebuf.shift_left rbuf ~pos:(4 + flen);
        process_v2 ()
      end
    end
  in
  let negotiate () =
    let bytes = Bytebuf.unsafe_bytes rbuf in
    if Bytes.get bytes 0 <> Frame.hello_byte then negotiated := true
    else begin
      let hlen = String.length Frame.hello in
      if Bytebuf.length rbuf >= hlen then
        if Bytes.sub_string bytes 0 hlen = Frame.hello then begin
          conn.wire <- V2;
          negotiated := true;
          Bytebuf.shift_left rbuf ~pos:hlen;
          let buf = conn_buffer conn in
          Bytebuf.add_string buf Frame.hello;
          send conn buf
        end
        else eof := true
    end
  in
  while (not !eof) && (not !overflow) && not (stopping t) do
    Bytebuf.reserve rbuf 4096;
    let bytes = Bytebuf.unsafe_bytes rbuf in
    let off = Bytebuf.length rbuf in
    match Unix.read fd bytes off (Bytes.length bytes - off) with
    | 0 -> eof := true
    | n ->
        Bytebuf.unsafe_advance rbuf n;
        if not !negotiated then negotiate ();
        if !negotiated then (
          match conn.wire with V1 -> process_v1 () | V2 -> process_v2 ())
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        () (* receive-timeout tick: recheck the stop flag *)
    | exception Unix.Unix_error _ -> eof := true
  done;
  (* A final unterminated v1 line at EOF is still served (netcat -q0
     style clients close without a trailing newline); it is within the
     limit, or the last read would have rejected it. *)
  let bytes = Bytebuf.unsafe_bytes rbuf and len = Bytebuf.length rbuf in
  if !eof && !negotiated && (not !overflow) && conn.wire = V1
     && not (blank bytes len)
  then frame conn bytes ~pos:0 ~len;
  (* Answer everything this connection owes before hanging up. *)
  wait_zero conn.held;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  down t.live

(* ---------- accept loop ---------- *)

let accept_loop t ~frame ~error =
  let continue = ref true in
  while !continue && not (stopping t) do
    match Unix.select [ t.listener ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true t.listener with
        | fd, _ ->
            up t.live;
            ignore
              (Thread.create (fun () -> connection_loop t ~frame ~error fd) ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error _ -> continue := false)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  try Unix.close t.listener with Unix.Unix_error _ -> ()

(* ---------- lifecycle ---------- *)

let listen ~host ~port =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let listener = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listener Unix.SO_REUSEADDR true;
     Unix.bind listener addr;
     Unix.listen listener 128
   with e ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise e);
  let actual_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  {
    listener;
    actual_port;
    stop_flag = Atomic.make false;
    live = count ();
    accepter = None;
    waited = Atomic.make false;
  }

let serve t ~frame ~error =
  t.accepter <- Some (Thread.create (fun () -> accept_loop t ~frame ~error) ())

let wait ?(after_accept = ignore) ?(after_connections = ignore) t =
  if not (Atomic.exchange t.waited true) then begin
    (match t.accepter with Some th -> Thread.join th | None -> ());
    after_accept ();
    wait_zero t.live;
    after_connections ()
  end

let handle_signals t =
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle (fun _ -> stop t))
      with Invalid_argument _ -> ())
    [ Sys.sigterm; Sys.sigint ]

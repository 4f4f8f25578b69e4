(* In-memory span store for the traced run.

   A span is one timed interval at a layer boundary: name, start, end,
   the span that caused it and the request it belongs to.  Spans stay
   in memory while the run measures and are written out as JSON lines
   when it ends.  One store per connection, so recording never takes a
   lock. *)

module Json = Tlp_util.Json_out

type span = {
  sid : int;
  parent : int;  (** [-1] for a root *)
  name : string;
  start : float;  (** seconds on the monotonic clock of the load process *)
  stop : float;
  req : int;  (** the server-assigned request id *)
}

type t = { base : int; mutable next : int; mutable spans : span list }

(* [base] keeps span ids unique across the per-connection stores. *)
let create ~conn = { base = conn * 1_000_000_000; next = 0; spans = [] }

let add t ~parent ~name ~start ~stop ~req =
  let sid = t.base + t.next in
  t.next <- t.next + 1;
  t.spans <- { sid; parent; name; start; stop; req } :: t.spans;
  sid

(* CLOCK_MONOTONIC in seconds, at nanosecond resolution: sub-microsecond
   layers such as a cache probe need more than gettimeofday's
   microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* A span whose end is not known yet: its id is fixed at open time so
   children recorded meanwhile can name it as their parent. *)
type pending = { p_sid : int; p_parent : int; p_name : string; p_start : float; p_req : int }

let open_span t ~parent ~name ~req =
  let sid = t.base + t.next in
  t.next <- t.next + 1;
  { p_sid = sid; p_parent = parent; p_name = name; p_start = now (); p_req = req }

let close_span t p =
  t.spans <-
    { sid = p.p_sid; parent = p.p_parent; name = p.p_name; start = p.p_start;
      stop = now (); req = p.p_req }
    :: t.spans

let time t ~parent ~req name f =
  let start = now () in
  let r = f () in
  ignore (add t ~parent ~name ~start ~stop:(now ()) ~req : int);
  r

let all stores = List.concat_map (fun t -> List.rev t.spans) stores

let duration s = s.stop -. s.start

(* A span's self time: its duration minus the part of its interval
   that the union of its children covers. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  fun s ->
    let kids =
      List.filter_map
        (fun c ->
          let a = Float.max c.start s.start and b = Float.min c.stop s.stop in
          if b > a then Some (a, b) else None)
        (Option.value (Hashtbl.find_opt children s.sid) ~default:[])
      |> List.sort compare
    in
    let covered, _ =
      List.fold_left
        (fun (acc, reach) (a, b) ->
          let a = Float.max a reach in
          if b > a then (acc +. (b -. a), b) else (acc, reach))
        (0.0, neg_infinity) kids
    in
    duration s -. covered

let to_json s =
  Json.Obj
    [
      ("sid", Json.Int s.sid);
      ("parent", if s.parent < 0 then Json.Null else Json.Int s.parent);
      ("name", Json.String s.name);
      ("start", Json.Float s.start);
      ("end", Json.Float s.stop);
      ("request_id", Json.Int s.req);
    ]

let write path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (Json.to_string (to_json s));
      output_char oc '\n')
    spans;
  close_out oc

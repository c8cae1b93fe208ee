(* Bench-side spans, merged with the program's own Dsd_obs spans.

   The driver opens a span around every call it makes into a layer's
   public functions; each span has an id, its parent's id and the id of
   the request it belongs to.  The program's phase spans (decompose,
   enumerate, build_network, retarget, flow, ...) arrive as Dsd_obs
   trace events; [absorb] turns them into spans and gives each the
   innermost enclosing span as parent.  Spans stay in memory until the
   run writes them out.  Parent id 0 means a root span. *)

type span = {
  id : int;
  parent : int;
  name : string;
  req : int;
  start_s : float;
  end_s : float;
}

let on = ref false
let lock = Mutex.create ()
let next_id = ref 0
let pending : span list ref = ref []

(* Open spans of the driver's main thread: (id, request id). *)
let stack : (int * int) list ref = ref []

let fresh_id () = Mutex.protect lock (fun () -> incr next_id; !next_id)
let add s = Mutex.protect lock (fun () -> pending := s :: !pending)

(* [with_ ?req name f] times [f] as a child of the innermost open span;
   [req] starts a new request id, otherwise the parent's is kept. *)
let with_ ?req name f =
  if not !on then f ()
  else begin
    let parent, preq = match !stack with (p, r) :: _ -> (p, r) | [] -> (0, 0) in
    let req = Option.value req ~default:preq in
    let id = fresh_id () in
    stack := (id, req) :: !stack;
    let start_s = Dsd_util.Timer.now_s () in
    let finish () =
      stack := List.tl !stack;
      add { id; parent; name; req; start_s; end_s = Dsd_util.Timer.now_s () }
    in
    Fun.protect ~finally:finish f
  end

(* A span measured by the caller (client threads, which have no stack);
   returns its id, or 0 when tracing is off.  [id] is one the caller
   took earlier with [fresh_id], to give children their parent first. *)
let record ?id ~parent ~req name start_s end_s =
  if not !on then 0
  else begin
    let id = match id with Some i -> i | None -> fresh_id () in
    add { id; parent; name; req; start_s; end_s };
    id
  end

(* Convert Dsd_obs enter/exit events into spans (parents unset: -1). *)
let absorb events =
  let open_ = Hashtbl.create 8 in
  List.iter
    (function
      | Dsd_obs.Trace.Span_enter { t_s; domain; _ } ->
        let st = Option.value (Hashtbl.find_opt open_ domain) ~default:[] in
        Hashtbl.replace open_ domain (t_s :: st)
      | Dsd_obs.Trace.Span_exit { name; t_s; domain; _ } -> (
        match Hashtbl.find_opt open_ domain with
        | Some (start_s :: st) ->
          Hashtbl.replace open_ domain st;
          add { id = fresh_id (); parent = -1; name; req = 0; start_s; end_s = t_s }
        | _ -> ())
      | Dsd_obs.Trace.Message _ -> ())
    events

(* Take every span recorded since the last call, with program spans
   attached to their innermost enclosing span by interval nesting. *)
let take () =
  let spans = Mutex.protect lock (fun () -> let s = !pending in pending := []; s) in
  let order a b =
    match compare a.start_s b.start_s with
    | 0 -> (
      match compare b.end_s a.end_s with
      | 0 -> compare (a.parent < 0) (b.parent < 0)
      | c -> c)
    | c -> c
  in
  let sorted = List.sort order spans in
  let st = ref [] in
  List.map
    (fun s ->
      let rec pop () =
        match !st with
        | top :: rest when not (top.start_s <= s.start_s && s.end_s <= top.end_s) ->
          st := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      let s =
        if s.parent >= 0 then s
        else
          match !st with
          | top :: _ -> { s with parent = top.id; req = top.req }
          | [] -> { s with parent = 0 }
      in
      st := s :: !st;
      s)
    sorted

(* Self time per span name: a span's duration minus the time its
   children cover.  Returns (name, self seconds, count), by name. *)
let self_times spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let d = s.end_s -. s.start_s in
      Hashtbl.replace child s.parent
        (d +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        s.end_s -. s.start_s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.
      in
      let t, c = Option.value (Hashtbl.find_opt acc s.name) ~default:(0., 0) in
      Hashtbl.replace acc s.name (t +. self, c + 1))
    spans;
  List.sort compare (Hashtbl.fold (fun n (t, c) l -> (n, t, c) :: l) acc [])

let self_of selfs name =
  match List.find_opt (fun (n, _, _) -> n = name) selfs with
  | Some (_, t, _) -> t
  | None -> 0.

let write path ~t0 spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"req\":%d,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.parent s.name s.req (s.start_s -. t0) (s.end_s -. t0))
    spans;
  close_out oc

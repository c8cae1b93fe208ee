(* The serve-mixed workload: a real `dsd serve` child process at its
   default settings, driven over a Unix socket by two closed-loop
   client threads running the seeded Script in whole cycles; the
   clients meet after every pass, where the daemon's CPU time is read.

   A seed with no stored answers first gets them computed in-process
   (see [record]).  Set-up (done Ctx.setups times; the median is
   setup_s) generates the graphs, writes them as snapshots and starts
   the daemon until it answers Ping; the warm-up requests follow the
   last set-up, outside its timing.  The traced mode adds spans around
   every client call and encode/decode, reads the cache tallies through
   the Stats endpoint, and replays the first two passes of both clients
   in-process through Dsd_serve.State.handle: once at the daemon's pool
   width for the handle time per class, then at one domain once
   untraced and twice traced for the program's counters (which must
   match between the two traced replays), its allocation and the
   tracing overhead. *)

module P = Dsd_serve.Protocol
module G = Dsd_graph.Graph
module Pat = Dsd_pattern.Pattern
module Obs = Dsd_obs

let graph_names = [ "as733"; "ca_hepth"; Script.delta_graph ]

(* ---- answers ---- *)

let pattern name = Option.get (Pat.of_string name)

(* The digest of a response and whether its recomputation holds.  A
   Density reply carries no set to recompute: its check is the expected
   digest alone, which every run has (stored, or computed by [record]
   before the run). *)
let judge graphs (req : P.request) (resp : P.response) =
  let g name = List.assoc name graphs in
  match (req, resp) with
  | _, P.Density_r d -> (Answer.density_only d, true)
  | P.Cds { graph; psi; _ }, P.Cds_r { density; vertices } ->
    (Answer.subgraph density vertices, Answer.rho_ok (g graph) (pattern psi) vertices density)
  | P.Query { graph; psi; vertices = query }, P.Query_r { density; vertices } ->
    ( Answer.subgraph density vertices,
      Answer.query_ok (g graph) (pattern psi) ~query vertices density )
  | P.Topk { graph; psi; _ }, P.Topk_r { regions } ->
    (Answer.list regions, regions <> [] && Answer.regions_ok (g graph) (pattern psi) regions)
  | P.Hierarchy { graph; psi; levels }, P.Hierarchy_r { levels = ls } ->
    (Answer.list ls, Answer.levels_ok ~complete:(levels = 0) (g graph) (pattern psi) ls)
  | P.Apply_delta _, P.Apply_delta_r { n; m; added; removed } ->
    (Printf.sprintf "%d:%d:%d:%d" n m added removed, true)
  | _, P.Error_r msg -> ("error: " ^ msg, false)
  | _ -> ("unexpected response", false)

(* Apply_delta answers are checked against the script itself. *)
let delta_digest graphs (bs : Script.batch array) pos =
  let b = bs.(int_of_string pos) in
  Printf.sprintf "%d:%d:%d:%d"
    (G.n (List.assoc Script.delta_graph graphs))
    b.m_after (Array.length b.adds) (Array.length b.removes)

(* Tally answers, recomputing each distinct (key, digest) once. *)
let check (ctx : Ctx.t) graphs bs answers =
  let seen = Hashtbl.create 256 in
  List.iter
    (fun ((it : Script.item), resp) ->
      match resp with
      | Error what -> Ctx.failure ctx (Printf.sprintf "%s: %s" it.key what)
      | Ok resp ->
        let digest, valid = judge graphs it.req resp in
        if it.cls = Script.Delta then begin
          ctx.attempted <- ctx.attempted + 1;
          if digest <> delta_digest graphs bs it.key then
            Ctx.failure ctx (Printf.sprintf "delta %s answered %s" it.key digest)
        end
        else begin
          let valid =
            match Hashtbl.find_opt seen (it.key, digest) with
            | Some v -> v
            | None -> Hashtbl.replace seen (it.key, digest) valid; valid
          in
          Ctx.answer ctx ~key:it.key ~digest ~valid
        end)
    answers

(* ---- the daemon ---- *)

type daemon = { pid : int; sock : string }

let live : daemon option ref = ref None

type timed = {
  resp : (P.response, string) result;
  call_s : float;
  encode_s : float;
  decode_s : float;
  bytes : int;
}

(* One request on its own connection, timed in its parts; traced runs
   record it as span [name] with its encode and decode as children. *)
let call ?(parent = 0) ?(req = 0) ~name sock (r : P.request) =
  let t0 = Ctx.now () in
  let tag, body = P.encode_request r in
  let t1 = Ctx.now () in
  let raw =
    try
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
          Unix.connect fd (Unix.ADDR_UNIX sock);
          P.write_frame fd ~tag body;
          match P.read_frame fd with
          | None -> Error "daemon closed the connection"
          | Some frame -> Ok frame)
    with e -> Error (Printexc.to_string e)
  in
  let t2 = Ctx.now () in
  let resp, bytes =
    match raw with
    | Ok (tag, body) -> (
      (try Ok (P.decode_response tag body) with e -> Error (Printexc.to_string e)),
      String.length body + 6)
    | Error e -> (Error e, 0)
  in
  let t3 = Ctx.now () in
  let id = Spans.record ~parent ~req name t0 t3 in
  ignore (Spans.record ~parent:id ~req "codec.encode" t0 t1);
  ignore (Spans.record ~parent:id ~req "codec.decode" t2 t3);
  { resp; call_s = t3 -. t0; encode_s = t1 -. t0; decode_s = t3 -. t2; bytes }

(* A control request (Ping, Stats, Shutdown, warm-up) and its reply. *)
let ask sock r = (call ~name:"client.control" sock r).resp

let reap pid =
  let deadline = Ctx.now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Ctx.now () < deadline -> Unix.sleepf 0.01; wait ()
    | 0, _ -> Unix.kill pid Sys.sigkill; ignore (Unix.waitpid [] pid)
    | _ -> ()
  in
  (try wait () with Unix.Unix_error _ -> ())

let stop d =
  live := None;
  (match ask d.sock P.Shutdown with
   | Ok _ -> ()
   | Error _ -> (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  reap d.pid;
  (try Sys.remove d.sock with Sys_error _ -> ())

let () = at_exit (fun () -> Option.iter stop !live)

let start (ctx : Ctx.t) snaps =
  let sock = Ctx.run_file (Printf.sprintf "dsd-%d.sock" (Unix.getpid ())) in
  let args =
    Array.of_list
      ([ ctx.dsd; "serve"; "--socket"; sock ]
       @ List.concat_map (fun (name, path) -> [ "-g"; name ^ "=" ^ path ]) snaps)
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process ctx.dsd args null null Unix.stderr in
  Unix.close null;
  let d = { pid; sock } in
  live := Some d;
  let deadline = Ctx.now () +. 60. in
  let rec ping () =
    match ask sock P.Ping with
    | Ok P.Pong -> ()
    | Ok _ -> failwith "daemon answered Ping wrongly"
    | Error e ->
      if Ctx.now () > deadline then failwith ("dsd serve did not answer Ping: " ^ e);
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ -> live := None; failwith "dsd serve exited during start-up");
      Unix.sleepf 0.002;
      ping ()
  in
  ping ();
  d

(* CPU seconds the daemon has run so far, summed over its threads from
   /proc/<pid>/task/*/schedstat (nanoseconds; like Ctx.cpu it leaves out
   steal time).  The daemon's threads (main, server loop, pool domains)
   live as long as it does, so none of its time is lost with a thread. *)
let daemon_cpu pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match
        In_channel.with_open_text (Filename.concat (Filename.concat dir tid) "schedstat")
          In_channel.input_all
      with
      | line -> acc +. (float_of_string (List.hd (String.split_on_char ' ' line)) /. 1e9)
      | exception Sys_error _ -> acc)
    0. (Sys.readdir dir)

(* One set-up, and its CPU seconds: the driver's, plus the daemon's
   until it answered Ping. *)
let setup_once (ctx : Ctx.t) =
  let graphs = List.map (fun n -> (n, Spans.with_ "graph.build" (fun () -> Stand.build n ctx.seed))) graph_names in
  let snaps =
    List.map
      (fun (name, g) ->
        let path = Ctx.snapshot_path name in
        ignore (Dsd_serve.Snapshot.write path g);
        (name, path))
      graphs
  in
  let d = Spans.with_ "daemon.start" (fun () -> start ctx snaps) in
  let daemon_s = daemon_cpu d.pid in
  List.iter (fun (_, p) -> Sys.remove p) snaps;
  (graphs, d, daemon_s)

let setup ctx =
  let rec go k times =
    let (graphs, d, daemon_s), own_s = Ctx.cpu_time (fun () -> setup_once ctx) in
    let dt = own_s +. daemon_s in
    if k = 1 then (Pct.median (dt :: times), graphs, d)
    else (stop d; go (k - 1) (dt :: times))
  in
  go Ctx.setups []

let warm_up (ctx : Ctx.t) d =
  List.iter
    (fun r ->
      match ask d.sock r with
      | Ok (P.Error_r e) | Error e -> Ctx.failure ctx ("warm-up request failed: " ^ e)
      | Ok _ -> ())
    Script.warm_up

(* ---- the closed loop ---- *)

type sample = { item : Script.item; t : timed }

let next_req = Atomic.make 0

(* Client [c] runs its pass [p]; returns its samples and the pass's
   wall time. *)
let client ~seed bs sock ~p c =
  let parent = if !Spans.on then Spans.fresh_id () else 0 in
  let t0 = Ctx.now () in
  let samples =
    List.map
      (fun (it : Script.item) ->
        let req = Atomic.fetch_and_add next_req 1 in
        { item = it; t = call ~parent ~req ~name:("client.call." ^ Script.cls_name it.cls) sock it.req })
      (Script.pass ~seed bs ~client:c p)
  in
  let t1 = Ctx.now () in
  ignore (Spans.record ~id:parent ~parent:0 ~req:0 (Printf.sprintf "client.%d" c) t0 t1);
  (samples, t1 -. t0)

(* One step of the loop: pass [p] of both clients, concurrently. *)
type step = { per_client : (sample list * float) list; cpu_s : float }

(* The closed loop runs whole cycles, each the same requests: at least
   [min_cycles], and no cycle started that would, taking as long as the
   last, end after the run's seconds.  So the work measured never
   depends on the code's speed.  The clients meet after every pass,
   where the daemon's CPU time is read, so each step's CPU time is known;
   steps.(k).(i) is pass i of cycle k. *)
let min_cycles = 3

let closed_loop (ctx : Ctx.t) bs d =
  let deadline = Ctx.now () +. ctx.seconds in
  let step p =
    let c0 = daemon_cpu d.pid in
    let results = Array.make Script.clients ([], 0.) in
    let threads =
      List.init Script.clients (fun c ->
          Thread.create (fun () -> results.(c) <- client ~seed:ctx.seed bs d.sock ~p c) ())
    in
    List.iter Thread.join threads;
    { per_client = Array.to_list results; cpu_s = daemon_cpu d.pid -. c0 }
  in
  let cycle k =
    let t0 = Ctx.now () in
    let steps = Array.init Script.passes_per_cycle (fun i -> step ((k * Script.passes_per_cycle) + i)) in
    (steps, Ctx.now () -. t0)
  in
  let rec go k acc =
    let steps, wall = cycle k in
    let acc = steps :: acc in
    if k + 1 >= min_cycles && Ctx.now () +. wall > deadline then Array.of_list (List.rev acc)
    else go (k + 1) acc
  in
  go 0 []

(* The daemon's CPU milliseconds per request: for each pass of the cycle
   the median over the cycles, summed over the cycle's passes, over the
   cycle's requests.  Taking the median pass by pass keeps a burst of
   load on the host, which slows a few passes of one cycle, out. *)
let cpu_ms_per_req steps =
  let per_pass i = Pct.median (Array.to_list (Array.map (fun c -> c.(i).cpu_s) steps)) in
  let total = List.fold_left ( +. ) 0. (List.init Script.passes_per_cycle per_pass) in
  total /. float_of_int (Script.clients * Script.passes_per_cycle * Script.pass_len) *. 1000.

let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec find () =
        let line = input_line ic in
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb *. 1024. /. 1e6)
        else find ()
      in
      find ())

(* ---- in-process replay through State.handle ---- *)

(* The first two passes of both clients, interleaved request by request. *)
let replay_script ~seed bs =
  let passes c = Script.pass ~seed bs ~client:c 0 @ Script.pass ~seed bs ~client:c 1 in
  let a = passes 0 and b = passes 1 in
  let rec interleave = function
    | [], ys -> ys
    | xs, [] -> xs
    | x :: xs, y :: ys -> x :: y :: interleave (xs, ys)
  in
  interleave (a, b)

type replay = {
  out : (Script.item * P.response * float) list;  (* answer, seconds *)
  cpu : float;
  counters : (string * int) list;
  probes : int;
  enumerate_calls : int;
  minor_words : float;
  major_collections : int;
}

let replay ~traced ~width graphs script =
  Dsd_util.Pool.with_pool width (fun pool ->
      let state = Dsd_serve.State.create ~pool ~max_cached:64 graphs in
      List.iter (fun r -> ignore (Dsd_serve.State.handle state r)) Script.warm_up;
      let sink = Obs.Trace.memory () in
      let go () =
        List.map
          (fun (it : Script.item) ->
            let req = Atomic.fetch_and_add next_req 1 in
            let resp, dt =
              Ctx.time (fun () ->
                  Spans.with_ ~req ("handle." ^ Script.cls_name it.cls) (fun () ->
                      Dsd_serve.State.handle state it.req))
            in
            (it, resp, dt))
          script
      in
      let gc0 = Gc.quick_stat () in
      let out, cpu =
        if traced then begin
          Spans.on := true;
          Fun.protect
            ~finally:(fun () -> Spans.on := false)
            (fun () -> Obs.Control.with_recording ~sink (fun () -> Ctx.cpu_time go))
        end
        else Ctx.cpu_time go
      in
      let gc1 = Gc.quick_stat () in
      Spans.absorb (Obs.Trace.memory_events sink);
      { out; cpu; counters = Obs.Counter.snapshot (); probes = Obs.Probe.count ();
        enumerate_calls = Obs.Span.entries "enumerate";
        minor_words = gc1.minor_words -. gc0.minor_words;
        major_collections = gc1.major_collections - gc0.major_collections })

(* ---- record mode ---- *)

(* Expected answers computed by direct library calls at one domain,
   not through the serving layer: every hot key, every miss slot of
   both clients, and the incremental read after every delta position,
   whose expected answer is a fresh CoreExact solve of the patched
   graph. *)
let record ~seed =
  let graphs = List.map (fun n -> (n, Stand.build n seed)) graph_names in
  let g name = List.assoc name graphs in
  let densest graph psi algorithm =
    let psi = pattern psi in
    let algorithm =
      match algorithm with
      | "coreexact" -> Dsd_core.Api.Core_exact
      | "peel" -> Dsd_core.Api.Peel
      | a -> failwith ("record: algorithm " ^ a)
    in
    Dsd_core.Api.densest_subgraph ~psi ~algorithm (g graph)
  in
  let answer (req : P.request) : P.response =
    match req with
    | P.Density { graph; psi; algorithm } -> P.Density_r (densest graph psi algorithm).density
    | P.Cds { graph; psi; algorithm } ->
      let s = densest graph psi algorithm in
      P.Cds_r { density = s.density; vertices = s.vertices }
    | P.Query { graph; psi; vertices } ->
      let s = (Dsd_core.Query_dsd.run (g graph) (pattern psi) ~query:vertices).subgraph in
      P.Query_r { density = s.density; vertices = s.vertices }
    | P.Topk { graph; psi; k } ->
      let r = Dsd_core.Topk_lds.run ~k (g graph) (pattern psi) in
      P.Topk_r
        { regions =
            List.map (fun (s : Dsd_core.Density.subgraph) -> (s.density, s.vertices)) r.regions }
    | P.Hierarchy { graph; psi; levels } ->
      let d = Dsd_core.Ld_decomposition.decompose (g graph) (pattern psi) in
      let ls = List.map (fun (l : Dsd_core.Ld_decomposition.level) -> (l.marginal_density, l.vertices)) d.levels in
      P.Hierarchy_r { levels = (if levels = 0 then ls else List.filteri (fun i _ -> i < levels) ls) }
    | _ -> failwith "record: not a read"
  in
  let row key req =
    let digest, valid = judge graphs req (answer req) in
    if not valid then failwith (Printf.sprintf "record: %s (seed %d) fails its recomputation" key seed);
    (seed, key, digest)
  in
  let hot = Array.to_list (Array.mapi (fun i r -> row (Printf.sprintf "hot:%d" i) r) Script.hot) in
  let misses =
    List.concat_map
      (fun c ->
        List.init Script.miss_pool (fun j ->
            let it = Script.miss ~seed ~client:c j in
            row it.key it.req))
      (List.init Script.clients Fun.id)
  in
  let base = g Script.delta_graph in
  let bs = Script.batches ~seed base in
  let dyn = Dsd_graph.Dynamic.of_graph base in
  let incs =
    Array.to_list
      (Array.mapi
         (fun pos (b : Script.batch) ->
           Array.iter (fun (u, v) -> ignore (Dsd_graph.Dynamic.add_edge dyn u v)) b.adds;
           Array.iter (fun (u, v) -> ignore (Dsd_graph.Dynamic.remove_edge dyn u v)) b.removes;
           let s = Dsd_core.Core_exact.run (Dsd_graph.Dynamic.snapshot dyn) (pattern Script.inc_psi) in
           (seed, Printf.sprintf "inc:%d" pos, Answer.density_only s.subgraph.density))
         bs)
  in
  hot @ misses @ incs

(* ---- the run ---- *)

let classes = Script.[ Hot; Miss; Delta; Inc ]

let run (ctx : Ctx.t) =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* A terminated driver still stops its daemon: exit runs at_exit. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  if not (Answer.has_seed ctx.store ctx.seed) then
    List.iter (fun (seed, key, digest) -> Answer.add ctx.store ~seed ~key digest) (record ~seed:ctx.seed);
  if ctx.trace then Spans.on := true;
  let setup_s, graphs, d = setup ctx in
  warm_up ctx d;
  let bs = Script.batches ~seed:ctx.seed (List.assoc Script.delta_graph graphs) in
  let steps = closed_loop ctx bs d in
  Spans.on := false;
  let all_steps = List.concat_map Array.to_list (Array.to_list steps) in
  let per_client =
    List.init Script.clients (fun c ->
        let mine = List.map (fun st -> List.nth st.per_client c) all_steps in
        (List.concat_map fst mine, List.map snd mine))
  in
  let samples = List.concat_map fst per_client in
  (* Each client's passes have their own mix: pass_s averages the
     clients' median passes, and throughput adds up their rates. *)
  let medians = List.map (fun (_, ps) -> Pct.median ps) per_client in
  let pass_s = List.fold_left ( +. ) 0. medians /. float_of_int Script.clients in
  let rate = List.fold_left (fun a m -> a +. (float_of_int Script.pass_len /. m)) 0. medians in
  let stats = ask d.sock P.Stats in
  let peak = try vm_hwm_mb d.pid with _ -> 0. in
  stop d;
  check ctx graphs bs (List.map (fun s -> (s.item, s.t.resp)) samples);
  let n = List.length samples in
  let of_cls c = List.filter (fun s -> s.item.Script.cls = c) samples in
  let ms s = s.t.call_s *. 1000. in
  let context =
    [ ("pool_width", string_of_int (Dsd_clique.Parallel.default_domains ()));
      ("cycles", string_of_int (Array.length steps));
      ("cycle_cpu_s",
       "["
       ^ String.concat ", "
           (Array.to_list
              (Array.map
                 (fun c -> Printf.sprintf "%.4f" (Array.fold_left (fun a st -> a +. st.cpu_s) 0. c))
                 steps))
       ^ "]");
      ("pass_s", Printf.sprintf "%.4f" pass_s);
      ("throughput_rps", Printf.sprintf "%.4f" rate) ]
    @ List.map
        (fun c -> (Script.cls_name c ^ "_samples", string_of_int (List.length (of_cls c))))
        classes
  in
  if not ctx.trace then begin
    (* Not scaled by the calibration kernel: run in the driver before
       and after the loop, it tracked the daemon's CPU time poorly (see
       README.md). *)
    Ctx.set ctx "setup_s" setup_s;
    Ctx.set ctx "cpu_ms_per_req" (cpu_ms_per_req steps);
    Ctx.set ctx "peak_mem_mb" peak;
    ([], context)
  end
  else begin
    Ctx.set ctx "pass_s" pass_s;
    Ctx.set ctx "throughput_rps" rate;
    let pct name p c =
      Option.iter (Ctx.set ctx name) (Pct.percentile p (List.map ms (of_cls c)))
    in
    pct "hot_ms.p50" 50. Script.Hot;
    pct "hot_ms.p99" 99. Script.Hot;
    pct "miss_ms.p50" 50. Script.Miss;
    pct "miss_ms.p90" 90. Script.Miss;
    pct "delta_ms.p50" 50. Script.Delta;
    pct "inc_ms.p50" 50. Script.Inc;
    List.iter
      (fun c -> Ctx.set ctx (Script.cls_name c ^ ".samples") (float_of_int (List.length (of_cls c))))
      classes;
    let mean f = List.fold_left (fun a s -> a +. f s) 0. samples /. float_of_int (max 1 n) in
    Ctx.set ctx "codec.encode_us" (mean (fun s -> s.t.encode_s *. 1e6));
    Ctx.set ctx "codec.decode_us" (mean (fun s -> s.t.decode_s *. 1e6));
    Ctx.set ctx "frame_bytes" (mean (fun s -> float_of_int s.t.bytes));
    (match stats with
     | Ok (P.Stats_r { cache; _ }) ->
       let get k = float_of_int (Option.value (List.assoc_opt k cache) ~default:0) in
       if get "requests" > 0. then Ctx.set ctx "cache.hit_ratio" (get "hits" /. get "requests");
       Ctx.set ctx "serve_cache_evictions" (get "evictions")
     | _ -> Ctx.failure ctx "the Stats endpoint did not answer");
    let script = replay_script ~seed:ctx.seed bs in
    (* Handle times at the daemon's width; counters, allocation and
       the tracing overhead at one domain. *)
    let at_width = replay ~traced:false ~width:(Dsd_clique.Parallel.default_domains ()) graphs script in
    let plain = replay ~traced:false ~width:1 graphs script in
    let traced_runs = List.init 2 (fun _ -> replay ~traced:true ~width:1 graphs script) in
    let spans = Spans.take () in
    List.iter
      (fun r -> check ctx graphs bs (List.map (fun (it, resp, _) -> (it, Ok resp)) r.out))
      (at_width :: plain :: traced_runs);
    let first = List.hd traced_runs in
    List.iteri
      (fun i r ->
        if r.counters <> first.counters || r.probes <> first.probes then
          Ctx.failure ctx (Printf.sprintf "traced replay %d gave a different counter snapshot" (i + 1)))
      traced_runs;
    Oneshot.report_counters ctx first.counters first.probes;
    let selfs = Spans.self_times spans in
    List.iter
      (fun ph -> Ctx.set ctx (ph ^ ".self_s") (Spans.self_of selfs ph /. 2.))
      Oneshot.phases;
    Ctx.set ctx "enumerate.calls" (float_of_int first.enumerate_calls);
    Ctx.set ctx "graph.build_s"
      (Spans.self_of selfs "graph.build" /. float_of_int Ctx.setups);
    List.iter
      (fun c ->
        let name = Script.cls_name c in
        let handle =
          Pct.median
            (List.filter_map
               (fun ((it : Script.item), _, dt) -> if it.cls = c then Some (dt *. 1000.) else None)
               at_width.out)
        in
        Ctx.set ctx ("handle_ms." ^ name) handle;
        let call = Pct.median (List.map ms (of_cls c)) in
        if handle > 0. && call > 0. then
          Ctx.set ctx ("transport_wait_ms." ^ name) (call -. handle))
      classes;
    Ctx.set ctx "gc.minor_mwords" (plain.minor_words /. 1e6);
    Ctx.set ctx "gc.major_collections" (float_of_int plain.major_collections);
    Ctx.set ctx "trace_overhead"
      (Pct.median (List.map (fun r -> r.cpu) traced_runs) /. plain.cpu);
    (spans, context)
  end

(* Runs the cds and lds workloads in-process.

   Untraced: answer every instance once at one domain (the reference
   pass); set up Ctx.setups times; then, at the program's default pool
   width, answer the whole instance set cold, round after round, for
   the run's seconds.  A pass is timed in CPU seconds, which the
   end-to-end metric uses, and in wall seconds, which the context line
   and the traced run report.  Traced: on instance 0 at one domain,
   alternate untraced and traced passes; a traced pass records the
   program's Dsd_obs spans and counters and the driver's own spans
   around every call.  Every traced pass must give the same counter
   snapshot. *)

module Pool = Dsd_util.Pool
module Obs = Dsd_obs

(* One instance of every graph a request list needs. *)
type inst = { instance : int; graphs : (string * Dsd_graph.Graph.t) list }

let build ~seed instance reqs =
  { instance;
    graphs =
      List.map
        (fun n ->
          (n, Spans.with_ "graph.build" (fun () -> Stand.build n (Solve.graph_seed seed instance))))
        (Solve.graph_names reqs) }

(* A set-up generates every instance of the run, then writes each graph
   as a snapshot and loads it back, as the CLI reads its input file; the
   loaded graphs are the ones solved. *)
let load ~seed reqs instances =
  List.init instances (fun i ->
      let inst = build ~seed i reqs in
      { inst with
        graphs =
          List.map
            (fun (n, g) ->
              let path = Ctx.snapshot_path n in
              ignore (Dsd_serve.Snapshot.write path g);
              let g = Spans.with_ "graph.load" (fun () -> Dsd_serve.Snapshot.load path) in
              Sys.remove path;
              (n, g))
            inst.graphs })

(* Ctx.setups set-ups; their median CPU time, and the instances of the
   last.  The kernel runs before and after them. *)
let setup (ctx : Ctx.t) reqs =
  let instances = Solve.instances ctx.workload in
  let rec go k times =
    Gc.compact ();
    let insts, dt = Ctx.cpu_time (fun () -> load ~seed:ctx.seed reqs instances) in
    if k = 1 then (Pct.median (dt :: times), insts) else go (k - 1) (dt :: times)
  in
  Calib.around (fun () -> go Ctx.setups [])

let next_req = ref 0

(* One cold pass: its wall time and each request's answer and time. *)
type clock = { wall_s : float; cpu_s : float }

let pass pool inst reqs =
  Gc.compact ();
  let t0 = Ctx.now () and c0 = Ctx.cpu () in
  let answers =
    List.map
      (fun (r : Solve.request) ->
        let g = List.assoc r.graph inst.graphs in
        incr next_req;
        let result, dt =
          Ctx.time (fun () ->
              try Ok (Spans.with_ ~req:!next_req ("req." ^ r.name) (fun () -> r.solve pool g))
              with e -> Error e)
        in
        (r, inst.instance, g, result, dt))
      reqs
  in
  ({ wall_s = Ctx.now () -. t0; cpu_s = Ctx.cpu () -. c0 }, answers)

(* Tally a pass's answers.  An answer whose digest was already
   validated this run skips the recomputation of its density. *)
let check ctx validated answers =
  List.iter
    (fun ((r : Solve.request), instance, g, result, _) ->
      let key = Solve.key r instance in
      match result with
      | Error e -> Ctx.failure ctx (key ^ " raised " ^ Printexc.to_string e)
      | Ok a ->
        let digest = Solve.digest a in
        let valid =
          Hashtbl.mem validated (key, digest)
          || Solve.valid g a && (Hashtbl.replace validated (key, digest) (); true)
        in
        Ctx.answer ctx ~key ~digest ~valid)
    answers

let checked_pass ctx pool inst reqs validated =
  let clock, answers = pass pool inst reqs in
  check ctx validated answers;
  (clock, List.map (fun ((r : Solve.request), _, _, _, dt) -> (r.name, dt)) answers)

(* Every instance once, at one domain. *)
let one_domain insts reqs =
  Pool.with_pool 1 (fun pool -> List.concat_map (fun inst -> snd (pass pool inst reqs)) insts)

(* The reference pass, checked.  A seed with no stored answers takes
   this pass's digests as the expected answers of the timed passes
   that follow. *)
let reference (ctx : Ctx.t) insts reqs validated =
  let answers = one_domain insts reqs in
  check ctx validated answers;
  if not (Answer.has_seed ctx.store ctx.seed) then
    List.iter
      (fun ((r : Solve.request), instance, _, result, _) ->
        match result with
        | Ok a -> Answer.add ctx.store ~seed:ctx.seed ~key:(Solve.key r instance) (Solve.digest a)
        | Error _ -> ())
      answers

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Rounds over the instance set, at least two, and no round started
   that the mean round time so far says would end after the run's
   seconds: every instance is timed the same number of times, whatever
   the speed of the code.  The kernel runs before every pass and after
   the last; a pass's CPU time is scaled by the mean of the kernel times
   on either side of it. *)
let rounds (ctx : Ctx.t) pool insts reqs validated =
  let start = Ctx.now () in
  let timed kernel inst =
    let clock, per_req = checked_pass ctx pool inst reqs validated in
    let after = Calib.time () in
    ((clock, Calib.scale ~kernel:((kernel +. after) /. 2.) clock.cpu_s, per_req), after)
  in
  let rec go k kernel acc =
    let elapsed = Ctx.now () -. start in
    if k >= 2 && elapsed +. (elapsed /. float_of_int k) > ctx.seconds then List.rev acc
    else begin
      let kernel, round =
        List.fold_left
          (fun (kernel, round) inst ->
            let p, after = timed kernel inst in
            (after, p :: round))
          (kernel, []) insts
      in
      go (k + 1) kernel (List.rev round :: acc)
    end
  in
  go 0 (Calib.time ()) []

let untraced (ctx : Ctx.t) reqs =
  let validated = Hashtbl.create 8 in
  (* The reference pass runs first, on its own copy of the instances:
     the heap's peak then counts the graphs and one pass at one domain,
     and not the garbage of the set-ups.  At two domains the peak
     depends on how the domains' allocations interleave, and varied by
     about 20% between runs. *)
  reference ctx (load ~seed:ctx.seed reqs (Solve.instances ctx.workload)) reqs validated;
  let peak_mb = Ctx.peak_heap_mb () in
  let (raw_setup_s, insts), setup_kernel = setup ctx reqs in
  let setup_s = Calib.scale ~kernel:setup_kernel raw_setup_s in
  Pool.with_pool (Dsd_clique.Parallel.default_domains ()) (fun pool ->
      let rounds = rounds ctx pool insts reqs validated in
      (* Per instance, the median over rounds; then the mean over the
         instances. *)
      let per_instance f =
        mean (List.mapi (fun i _ -> Pct.median (List.map (fun r -> f (List.nth r i)) rounds)) insts)
      in
      let scaled_s = per_instance (fun (_, s, _) -> s) in
      let cpu_s = per_instance (fun (c, _, _) -> c.cpu_s) in
      let wall_s = per_instance (fun (c, _, _) -> c.wall_s) in
      let n = float_of_int (List.length reqs) in
      Ctx.set ctx "setup_s" setup_s;
      Ctx.set ctx "cpu_ms_per_req" (scaled_s /. n *. 1000.);
      Ctx.set ctx "peak_mem_mb" peak_mb;
      [ ("pool_width", string_of_int (Pool.size pool));
        ("instances", string_of_int (List.length insts));
        ("rounds", string_of_int (List.length rounds));
        ("unscaled_cpu_ms_per_req", Printf.sprintf "%.4f" (cpu_s /. n *. 1000.));
        ("unscaled_setup_s", Printf.sprintf "%.4f" raw_setup_s);
        ("setup_kernel_s", Printf.sprintf "%.4f" setup_kernel);
        ("pass_s", Printf.sprintf "%.4f" wall_s);
        ("throughput_rps", Printf.sprintf "%.4f" (n /. wall_s));
        ("req_s",
         Printf.sprintf "{%s}"
           (String.concat ", "
              (List.map
                 (fun (r : Solve.request) ->
                   Printf.sprintf "%S: %.4f" r.name (per_instance (fun (_, _, per) -> List.assoc r.name per)))
                 reqs))) ])

(* Counters reported under their Dsd_obs names, plus the ratios over
   probes (every min-cut solve, as Dsd_obs.Probe counts them). *)
let counter_metrics =
  [ "clique_instances"; "peeled_vertices"; "flow_networks_built"; "flow_retargets";
    "flow_warm_starts"; "flow_augmentations"; "flow_level_builds"; "topk_rounds";
    "topk_components_pruned"; "ld_levels"; "pool_jobs"; "delta_core_repairs";
    "delta_instances_added"; "delta_instances_retired"; "delta_arena_rebuilds" ]

let report_counters ctx counters probes =
  let count name = float_of_int (Option.value (List.assoc_opt name counters) ~default:0) in
  List.iter (fun n -> Ctx.set ctx n (count n)) counter_metrics;
  Ctx.set ctx "probes" (float_of_int probes);
  if probes > 0 then begin
    Ctx.set ctx "builds_per_probe" (count "flow_networks_built" /. float_of_int probes);
    Ctx.set ctx "augmentations_per_probe" (count "flow_augmentations" /. float_of_int probes)
  end

let phases = [ "enumerate"; "decompose"; "build_network"; "retarget"; "flow" ]

type traced_pass = {
  clock : clock;
  counters : (string * int) list;
  probes : int;
  enumerate_calls : int;
  selfs : (string * float * int) list;
}

let traced_pass ctx pool inst reqs validated =
  let sink = Obs.Trace.memory () in
  Spans.on := true;
  let clock, answers =
    Fun.protect
      ~finally:(fun () -> Spans.on := false)
      (fun () -> Obs.Control.with_recording ~sink (fun () -> pass pool inst reqs))
  in
  check ctx validated answers;
  Spans.absorb (Obs.Trace.memory_events sink);
  let spans = Spans.take () in
  { clock;
    counters = Obs.Counter.snapshot ();
    probes = Obs.Probe.count ();
    enumerate_calls = Obs.Span.entries "enumerate";
    selfs = Spans.self_times spans },
  spans

let traced (ctx : Ctx.t) reqs =
  Spans.on := true;
  let (_, insts), _ = setup ctx reqs in
  let inst = List.hd insts in
  Spans.on := false;
  let setup_spans = Spans.take () in
  Ctx.set ctx "graph.build_s" (Spans.self_of (Spans.self_times setup_spans) "graph.build" /. float_of_int Ctx.setups);
  let validated = Hashtbl.create 8 in
  reference ctx [ inst ] reqs validated;
  let all_spans = ref setup_spans in
  let plain = ref [] and traced = ref [] and gc = ref [] in
  Pool.with_pool 1 (fun pool ->
      let start = Ctx.now () in
      while Ctx.now () -. start < ctx.seconds || List.length !traced < 2 do
        let before = Gc.quick_stat () in
        let clock, per_req = checked_pass ctx pool inst reqs validated in
        let after = Gc.quick_stat () in
        plain := (clock, per_req) :: !plain;
        gc := (after.minor_words -. before.minor_words,
               after.major_collections - before.major_collections) :: !gc;
        let tp, spans = traced_pass ctx pool inst reqs validated in
        traced := tp :: !traced;
        all_spans := spans @ !all_spans
      done);
  (* Pool utilisation is a property of the default width. *)
  Pool.with_pool (Dsd_clique.Parallel.default_domains ()) (fun pool ->
      let _, answers = Obs.Control.with_recording (fun () -> pass pool inst reqs) in
      check ctx validated answers;
      let jobs = Obs.Counter.get Obs.Counter.Pool_jobs in
      if jobs > 0 then
        Ctx.set ctx "pool.workers_per_job"
          (float_of_int (Obs.Counter.get Obs.Counter.Pool_workers_engaged) /. float_of_int jobs));
  let traced = List.rev !traced in
  let first = List.hd traced in
  List.iteri
    (fun i tp ->
      if tp.counters <> first.counters || tp.probes <> first.probes then
        Ctx.failure ctx
          (Printf.sprintf "traced pass %d gave a different counter snapshot than pass 1" (i + 1)))
    traced;
  report_counters ctx first.counters first.probes;
  Ctx.set ctx "enumerate.calls" (float_of_int first.enumerate_calls);
  List.iter
    (fun ph ->
      Ctx.set ctx (ph ^ ".self_s")
        (Pct.median (List.map (fun tp -> Spans.self_of tp.selfs ph) traced)))
    phases;
  List.iter
    (fun (r : Solve.request) ->
      Ctx.set ctx ("req." ^ r.name ^ "_s")
        (Pct.median (List.map (fun (_, per) -> List.assoc r.name per) !plain)))
    reqs;
  Ctx.set ctx "gc.minor_mwords" (Pct.median (List.map (fun (w, _) -> w /. 1e6) !gc));
  Ctx.set ctx "gc.major_collections"
    (Pct.median (List.map (fun (_, c) -> float_of_int c) !gc));
  let pass_s = Pct.median (List.map (fun (c, _) -> c.wall_s) !plain) in
  Ctx.set ctx "pass_s" pass_s;
  Ctx.set ctx "throughput_rps" (float_of_int (List.length reqs) /. pass_s);
  Ctx.set ctx "trace_overhead"
    (Pct.median (List.map (fun tp -> tp.clock.cpu_s) traced)
     /. Pct.median (List.map (fun (c, _) -> c.cpu_s) !plain));
  (!all_spans, [ ("pool_width", "1") ])

let run (ctx : Ctx.t) =
  let reqs = Solve.requests ctx.workload in
  if ctx.trace then traced ctx reqs else ([], untraced ctx reqs)

(* Record mode: each request's answer on every instance of [seed], at
   one domain. *)
let record ~seed workload =
  let reqs = Solve.requests workload in
  let insts = List.init (Solve.instances workload) (fun i -> build ~seed i reqs) in
  List.map
    (fun ((r : Solve.request), instance, g, result, _) ->
      let key = Solve.key r instance in
      let a = match result with Ok a -> a | Error e -> raise e in
      if not (Solve.valid g a) then
        failwith (Printf.sprintf "record: %s (seed %d) fails its recomputation" key seed);
      (seed, key, Solve.digest a))
    (one_domain insts reqs)

(* The metrics the driver reports, in BENCHMARK.json order, and the
   result line.  Every workload prints every metric of its mode; a
   per-layer metric whose layer a workload never calls reads 0. *)

(* name, unit, better *)
let end_to_end =
  [ ("setup_s", "s", "lower");
    ("cpu_ms_per_req", "ms", "lower");
    ("peak_mem_mb", "MB", "lower") ]

let per_layer =
  let lower u names = List.map (fun n -> (n, u, "lower")) names in
  let classes = [ "hot"; "miss"; "delta"; "inc" ] in
  List.concat
    [ lower "s" [ "pass_s" ];
      [ ("throughput_rps", "1/s", "higher") ];
      lower "s" [ "graph.build_s" ];
      lower "s" [ "enumerate.self_s" ];
      lower "count" [ "enumerate.calls"; "clique_instances" ];
      lower "s" [ "decompose.self_s" ];
      lower "count" [ "peeled_vertices" ];
      lower "s" [ "build_network.self_s" ];
      lower "count" [ "flow_networks_built" ];
      lower "s" [ "retarget.self_s" ];
      lower "count" [ "flow_retargets" ];
      [ ("flow_warm_starts", "count", "higher") ];
      lower "s" [ "flow.self_s" ];
      lower "count" [ "flow_augmentations"; "flow_level_builds" ];
      lower "ratio" [ "augmentations_per_probe" ];
      lower "count" [ "probes" ];
      lower "ratio" [ "builds_per_probe" ];
      lower "count" [ "topk_rounds" ];
      [ ("topk_components_pruned", "count", "higher") ];
      lower "count" [ "ld_levels" ];
      lower "s" (List.map (fun n -> "req." ^ n ^ "_s") Solve.all_names);
      lower "count" [ "pool_jobs" ];
      [ ("pool.workers_per_job", "ratio", "higher") ];
      lower "ms"
        [ "hot_ms.p50"; "hot_ms.p99"; "miss_ms.p50"; "miss_ms.p90";
          "delta_ms.p50"; "inc_ms.p50" ];
      List.map (fun c -> (c ^ ".samples", "count", "higher")) classes;
      lower "ms" (List.map (fun c -> "handle_ms." ^ c) classes);
      lower "ms" (List.map (fun c -> "transport_wait_ms." ^ c) classes);
      lower "us" [ "codec.encode_us"; "codec.decode_us" ];
      lower "bytes" [ "frame_bytes" ];
      [ ("cache.hit_ratio", "ratio", "higher") ];
      lower "count"
        [ "serve_cache_evictions"; "delta_core_repairs"; "delta_instances_added";
          "delta_instances_retired"; "delta_arena_rebuilds" ];
      lower "Mwords" [ "gc.minor_mwords" ];
      lower "count" [ "gc.major_collections" ];
      lower "ratio" [ "trace_overhead" ] ]

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

(* The last stdout line: {"correct", "attempted", "failed", "metrics"}. *)
let result_line ~trace ~correct ~attempted ~failed (values : (string, float) Hashtbl.t) =
  let spec = if trace then per_layer else end_to_end in
  let metric (name, unit, _) =
    let v = Option.value (Hashtbl.find_opt values name) ~default:0. in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric spec))

(* The cds and lds workloads: fixed lists of one-shot solves, each
   called through the library's public entry point the way the CLI
   answers it, cold on every pass.

   A run solves a fixed set of [instances workload] graphs of every
   stand-in's shape, generated from the workload seed; instance 0 of
   the default seed is the stand-in itself.  lds uses four instances
   because its work varies between graphs of one shape (over seeds
   1-10, yeast hierarchies have 26 to 33 levels and a pass makes 2600
   to 3450 min-cut probes); cds work varies by a few percent and uses
   one. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module D = Dsd_core.Density

type answer =
  | Sub of P.t * D.subgraph
  | Regions of P.t * (float * int array) list
  | Levels of P.t * (float * int array) list

type request = {
  name : string;   (* reported as req.<name>_s *)
  graph : string;  (* a Stand graph *)
  solve : Dsd_util.Pool.t -> G.t -> answer;
}

let instances = function "lds" -> 4 | _ -> 1

(* Instance 0 of the default seed is the stand-in itself. *)
let graph_seed seed instance = seed + (instance * 100_000)

(* The expected-answer key of a request on an instance. *)
let key r instance = Printf.sprintf "%s#%d" r.name instance

let api ~psi algorithm pool g =
  Sub (psi, Dsd_core.Api.densest_subgraph ~pool ~psi ~algorithm g)

let requests = function
  | "cds" ->
    [ { name = "cds_dblp_triangle"; graph = "dblp_s";
        solve = api ~psi:P.triangle Dsd_core.Api.Core_exact };
      { name = "cds_hepth_diamond"; graph = "ca_hepth";
        solve = api ~psi:P.diamond Dsd_core.Api.Core_exact };
      { name = "cds_uk_peel"; graph = "uk_s";
        solve = api ~psi:P.triangle Dsd_core.Api.Peel } ]
  | "lds" ->
    [ { name = "lds_yeast_hierarchy"; graph = "yeast";
        solve =
          (fun pool g ->
            let d = Dsd_core.Ld_decomposition.decompose ~pool g P.edge in
            Levels
              ( P.edge,
                List.map
                  (fun (l : Dsd_core.Ld_decomposition.level) ->
                    (l.marginal_density, l.vertices))
                  d.levels )) };
      { name = "lds_hepth_top5"; graph = "ca_hepth";
        solve =
          (fun pool g ->
            let r = Dsd_core.Topk_lds.run ~pool ~k:5 g P.edge in
            Regions
              ( P.edge,
                List.map (fun (s : D.subgraph) -> (s.density, s.vertices)) r.regions )) } ]
  | w -> invalid_arg ("Solve.requests: " ^ w)

let all_names = List.concat_map (fun w -> List.map (fun r -> r.name) (requests w)) [ "cds"; "lds" ]

let graph_names reqs = List.sort_uniq compare (List.map (fun r -> r.graph) reqs)

let digest = function
  | Sub (_, sg) -> Answer.subgraph sg.density sg.vertices
  | Regions (_, l) | Levels (_, l) -> Answer.list l

let valid g = function
  | Sub (psi, sg) -> Answer.rho_ok g psi sg.vertices sg.density
  | Regions (psi, l) -> l <> [] && Answer.regions_ok g psi l
  | Levels (psi, l) -> Answer.levels_ok ~complete:true g psi l

(* Differential testing: every exact solver configuration must agree
   on the optimal h-clique density, and both max-flow engines must
   agree on the max-flow value and the minimum cut's source side.
   Seeded Dsd_data.Gen graphs keep every run reproducible. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module D = Dsd_core.Density
module CE = Dsd_core.Core_exact
module F = Dsd_flow.Flow_network

let pruning_combos =
  List.concat_map
    (fun p1 ->
      List.concat_map
        (fun p2 ->
          List.map (fun p3 -> { CE.p1; p2; p3 }) [ false; true ])
        [ false; true ])
    [ false; true ]

let combo_name (p : CE.prunings) =
  Printf.sprintf "p1=%b,p2=%b,p3=%b" p.CE.p1 p.CE.p2 p.CE.p3

let seeded_graphs =
  List.init 20 (fun seed ->
      (seed, Helpers.random_graph ~seed ~max_n:12 ~max_m:28 ()))

(* All Core_exact configurations against the flow-only baseline. *)
let test_exact_solvers_agree () =
  List.iter
    (fun (seed, g) ->
      List.iter
        (fun h ->
          let psi = P.clique h in
          let ctx = Printf.sprintf "%s h=%d" (Helpers.seed_ctx seed) h in
          let reference =
            (Dsd_core.Exact.run g psi).Dsd_core.Exact.subgraph.D.density
          in
          List.iter
            (fun prunings ->
              let r = CE.run ~prunings g psi in
              Helpers.check_float
                (ctx ^ " CoreExact " ^ combo_name prunings)
                reference r.CE.subgraph.D.density)
            pruning_combos;
          let grouped = CE.run ~grouped:true g psi in
          Helpers.check_float (ctx ^ " grouped") reference
            grouped.CE.subgraph.D.density;
          (* The instance-node (PExact) and construct+ (CorePExact)
             networks solve the same clique problem. *)
          let pexact = Dsd_core.Pexact.run g psi in
          Helpers.check_float (ctx ^ " PExact") reference
            pexact.Dsd_core.Exact.subgraph.D.density;
          let corepexact = Dsd_core.Core_pexact.run g psi in
          Helpers.check_float (ctx ^ " CorePExact") reference
            corepexact.CE.subgraph.D.density)
        [ 2; 3 ])
    seeded_graphs

(* Exact solvers also agree with the exhaustive subset oracle. *)
let test_exact_matches_brute_force () =
  List.iter
    (fun (seed, g) ->
      List.iter
        (fun h ->
          let psi = P.clique h in
          let opt, _ = Helpers.brute_force_densest g psi in
          let r = CE.run g psi in
          Helpers.check_float
            (Printf.sprintf "%s h=%d vs brute force" (Helpers.seed_ctx seed) h)
            opt r.CE.subgraph.D.density)
        [ 2; 3 ])
    seeded_graphs

(* Random flow networks: node count, arc density and float capacities
   drawn from a seeded PRNG; Dinic and Edmonds-Karp must compute the
   same max-flow value. *)
let random_network rng =
  let n = 2 + Dsd_util.Prng.int rng 14 in
  let arcs = Dsd_util.Prng.int rng (4 * n) in
  let net = F.create n in
  for _ = 1 to arcs do
    let u, v = Dsd_util.Prng.pair_distinct rng n in
    let cap = Dsd_util.Prng.float rng 10. in
    ignore (F.add_edge net ~src:u ~dst:v ~cap)
  done;
  net

(* General networks, unlike the three-layer DSD ones: the sink sits at
   a random id, random arcs point every way (back arcs, arcs into the
   source, arcs out of the sink), and a chain from the source through
   every other node puts nodes at and beyond the sink's BFS level.
   Integer capacities keep the flows exact.  Returns the arc list so
   that two identical copies can be built. *)
let general_arcs rng =
  let module Prng = Dsd_util.Prng in
  let n = 4 + Prng.int rng 16 in
  let t = 1 + Prng.int rng (n - 1) in
  let cap () = 1 + Prng.int rng 9 in
  let chain = Array.init (n - 1) (fun i -> i + 1) in
  Prng.shuffle rng chain;
  let arcs = ref [] in
  Array.iteri
    (fun i v ->
      let u = if i = 0 then 0 else chain.(i - 1) in
      arcs := (u, v, cap ()) :: !arcs)
    chain;
  for _ = 1 to Prng.int rng (3 * n) do
    let u, v = Prng.pair_distinct rng n in
    arcs := (u, v, cap ()) :: !arcs
  done;
  (n, t, List.rev !arcs)

(* A copy of a general network.  [warm] first solves it with every
   capacity halved (Edmonds-Karp, deterministic) and then raises the
   capacities in place, so the solvers under test resume from a
   non-zero residual state rather than from zero flow. *)
let general_network (n, t, arcs) ~warm =
  let net = F.create n in
  let ids =
    List.map
      (fun (u, v, c) ->
        let c = float_of_int (if warm then c / 2 else c) in
        F.add_edge net ~src:u ~dst:v ~cap:c)
      arcs
  in
  if warm then begin
    ignore (Dsd_flow.Edmonds_karp.max_flow net ~s:0 ~t);
    List.iter2 (fun e (_, _, c) -> F.set_cap net e (float_of_int c)) ids arcs
  end;
  net

let test_dinic_vs_edmonds_karp () =
  for seed = 0 to 24 do
    (* Two identical copies: max_flow mutates the residual state. *)
    let a = random_network (Helpers.rng seed) in
    let b = random_network (Helpers.rng seed) in
    let n = F.node_count a in
    let s = 0 and t = n - 1 in
    let fa = Dsd_flow.Dinic.max_flow a ~s ~t in
    let fb = Dsd_flow.Edmonds_karp.max_flow b ~s ~t in
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "%s max flow" (Helpers.seed_ctx seed))
      fa fb
  done;
  for seed = 0 to 199 do
    let spec = general_arcs (Helpers.rng seed) in
    let _, t, _ = spec in
    let warm = seed mod 2 = 1 in
    let a = general_network spec ~warm and b = general_network spec ~warm in
    let ctx = Printf.sprintf "%s general warm=%b" (Helpers.seed_ctx seed) warm in
    let _, side = Dsd_flow.Dinic.max_flow_cut a ~s:0 ~t in
    ignore (Dsd_flow.Edmonds_karp.max_flow b ~s:0 ~t);
    Alcotest.(check (float 0.))
      (ctx ^ " max flow") (F.flow_value b ~s:0) (F.flow_value a ~s:0);
    Alcotest.(check (array bool))
      (ctx ^ " Dinic side = residual BFS")
      (Dsd_flow.Min_cut.source_side a ~s:0) side;
    Alcotest.(check (array bool))
      (ctx ^ " Dinic side = Edmonds-Karp side")
      (Dsd_flow.Min_cut.source_side b ~s:0) side
  done

let suite =
  [
    Alcotest.test_case "exact solver configurations agree (h=2,3)" `Quick
      test_exact_solvers_agree;
    Alcotest.test_case "exact solvers match brute force" `Quick
      test_exact_matches_brute_force;
    Alcotest.test_case "dinic = edmonds-karp on random networks" `Quick
      test_dinic_vs_edmonds_karp;
  ]

(* Seeded copies of the Dsd_data.Datasets stand-ins the workloads use.

   Each graph is built with its stand-in's generator and shape
   parameters; the workload seed only shifts the generator seeds.  Seed
   0 leaves them unshifted, so the default seed reproduces the named
   stand-ins exactly (the self-tests check this). *)

module G = Dsd_graph.Graph
module Gen = Dsd_data.Gen
module Prng = Dsd_util.Prng

let shift seed base = base + (seed * 1_000_003)

(* Dsd_data.Datasets "yeast": a Chung-Lu backbone plus twelve planted
   85%-dense complexes of 4-7 proteins. *)
let yeast seed =
  let n = 1116 in
  let backbone =
    Gen.power_law_chung_lu ~seed:(shift seed 101) ~n ~alpha:2.9 ~avg_deg:3.4
  in
  let rng = Prng.create (shift seed 1011) in
  let edges = ref (Array.to_list (G.edges backbone)) in
  for _ = 1 to 12 do
    let size = 4 + Prng.int rng 4 in
    let base = Prng.int rng (n - size) in
    for i = base to base + size - 1 do
      for j = i + 1 to base + size - 1 do
        if Prng.float rng 1.0 < 0.85 then edges := (i, j) :: !edges
      done
    done
  done;
  G.of_edge_list ~n !edges

let as733_backbone seed =
  Gen.barabasi_albert ~seed:(shift seed 103) ~n:1486 ~attach:2

(* Dsd_data.Datasets "as733": the BA backbone plus a K12 peering core
   over the twelve oldest hubs. *)
let as733 seed =
  let edges = ref (Array.to_list (G.edges (as733_backbone seed))) in
  for u = 0 to 11 do
    for v = u + 1 to 11 do
      edges := (u, v) :: !edges
    done
  done;
  G.of_edge_list ~n:1486 !edges

(* [as733_ba], the graph serve-mixed mutates, is as733's BA backbone
   without the planted core. *)
let build name seed =
  match name with
  | "dblp_s" -> Gen.ssca ~seed:(shift seed 201) ~n:50_000 ~max_clique:10
  | "ca_hepth" -> Gen.ssca ~seed:(shift seed 104) ~n:4000 ~max_clique:8
  | "uk_s" -> Gen.ssca ~seed:(shift seed 205) ~n:80_000 ~max_clique:12
  | "yeast" -> yeast seed
  | "as733" -> as733 seed
  | "as733_ba" -> as733_backbone seed
  | other -> invalid_arg ("Stand.build: unknown graph " ^ other)

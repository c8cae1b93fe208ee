(* Self-tests of the benchmark driver: the percentile rule, the answer
   checker, the determinism of the generated inputs, and the metric list
   against BENCHMARK.json.  Run by `dune runtest`. *)

open Perfbench
module G = Dsd_graph.Graph
module Pat = Dsd_pattern.Pattern

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let percentile_rule () =
  let xs n = List.init n float_of_int in
  expect "p99 of 1000 samples has 10 beyond it" (Pct.percentile 99. (xs 1000) = Some 989.);
  expect "p99 of 999 samples has 9 beyond it" (Pct.percentile 99. (xs 999) = None);
  expect "p50 of 20 samples" (Pct.percentile 50. (xs 20) = Some 9.);
  expect "p50 of 19 samples" (Pct.percentile 50. (xs 19) = None);
  expect "p90 of 100 samples" (Pct.percentile 90. (xs 100) = Some 89.);
  expect "no samples" (Pct.percentile 50. [] = None);
  expect "median" (Pct.median [ 3.; 1.; 2.; 10. ] = 2.5)

(* K4 on 0-3 plus a path 3-4-5: the K4 is the edge-densest set. *)
let fixture = G.of_edge_list ~n:6 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3); (3, 4); (4, 5) ]

let flip_last_bit x = Int64.float_of_bits (Int64.logxor (Int64.bits_of_float x) 1L)

let checker () =
  let k4 = [| 0; 1; 2; 3 |] in
  let d = 1.5 in
  expect "rho of the K4" (Answer.rho_ok fixture Pat.edge k4 d);
  expect "a density one ulp off is rejected" (not (Answer.rho_ok fixture Pat.edge k4 (flip_last_bit d)));
  expect "a wrong vertex set is rejected" (not (Answer.rho_ok fixture Pat.edge [| 0; 1; 2; 4 |] d));
  expect "a query answer must hold the query"
    (not (Answer.query_ok fixture Pat.edge ~query:[| 5 |] k4 d));
  let levels = [ (1.5, k4); (1.0, [| 4; 5 |]) ] in
  expect "a true hierarchy" (Answer.levels_ok ~complete:true fixture Pat.edge levels);
  expect "a corrupted marginal is rejected"
    (not (Answer.levels_ok ~complete:true fixture Pat.edge [ (1.5, k4); (1.5, [| 4; 5 |]) ]));
  expect "an incomplete chain is rejected"
    (not (Answer.levels_ok ~complete:true fixture Pat.edge [ (1.5, k4) ]));
  expect "overlapping regions are rejected"
    (not (Answer.regions_ok fixture Pat.edge [ (1.5, k4); (1.0, [| 3; 4 |]) ]));
  (* The stored digests. *)
  let path = "selftest-answers.tsv" in
  Answer.save path [ (7, "k", Answer.subgraph d k4) ];
  let store = Answer.load path in
  Sys.remove path;
  expect "the stored answer matches" (Answer.check store ~seed:7 ~key:"k" (Answer.subgraph d k4));
  expect "a changed density is rejected"
    (not (Answer.check store ~seed:7 ~key:"k" (Answer.subgraph (flip_last_bit d) k4)));
  expect "a changed vertex set is rejected"
    (not (Answer.check store ~seed:7 ~key:"k" (Answer.subgraph d [| 0; 1; 2 |])));
  expect "an unknown key of a stored seed is rejected"
    (not (Answer.check store ~seed:7 ~key:"other" (Answer.subgraph d k4)));
  let fresh = Answer.load "absent.tsv" in
  expect "a seed with no stored answers accepts any digest"
    (Answer.check fresh ~seed:9 ~key:"k" (Answer.subgraph d [| 0; 1; 2 |]));
  Answer.add fresh ~seed:9 ~key:"k" (Answer.subgraph d k4);
  expect "an answer computed in-process is then enforced"
    (not (Answer.check fresh ~seed:9 ~key:"k" (Answer.subgraph d [| 0; 1; 2 |])));
  expect "a list digest sees a later element"
    (Answer.list levels <> Answer.list [ (1.5, k4); (1.0, [| 4 |]) ]);
  let ctx : Ctx.t =
    { workload = "cds"; seed = 7; seconds = 1.; trace = false; dsd = ""; store;
      values = Hashtbl.create 1; attempted = 0; failed = 0 }
  in
  (* The two wrong answers are reported on stderr; keep that quiet. *)
  let saved = Unix.dup Unix.stderr and null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 null Unix.stderr;
  Ctx.answer ctx ~key:"k" ~digest:(Answer.subgraph d k4) ~valid:true;
  Ctx.answer ctx ~key:"k" ~digest:(Answer.subgraph d [| 0; 1; 2 |]) ~valid:true;
  Ctx.answer ctx ~key:"k" ~digest:(Answer.subgraph d k4) ~valid:false;
  Unix.dup2 saved Unix.stderr;
  List.iter Unix.close [ saved; null ];
  expect "the tally counts both wrong answers" (ctx.attempted = 3 && ctx.failed = 2)

let generators () =
  List.iter
    (fun name ->
      expect (name ^ ": seed 0 is the stand-in")
        (G.equal (Stand.build name 0) (Dsd_data.Datasets.graph name));
      expect (name ^ ": the same seed gives the same graph")
        (G.equal (Stand.build name 5) (Stand.build name 5));
      expect (name ^ ": another seed gives another graph")
        (not (G.equal (Stand.build name 5) (Stand.build name 6))))
    [ "ca_hepth"; "yeast"; "as733"; "dblp_s"; "uk_s" ];
  expect "as733_ba at seed 0 is as733's backbone"
    (G.equal (Stand.build "as733_ba" 0)
       (Dsd_data.Gen.barabasi_albert ~seed:103 ~n:1486 ~attach:2));
  let g = Stand.build "as733_ba" 3 in
  let bs = Script.batches ~seed:3 g in
  expect "the delta script repeats" (bs = Script.batches ~seed:3 g);
  expect "another seed, another delta script" (bs <> Script.batches ~seed:4 g);
  let script seed = List.init 3 (fun p -> List.init 2 (fun c -> Script.pass ~seed bs ~client:c p)) in
  expect "the request script repeats" (script 3 = script 3);
  expect "every pass has pass_len requests"
    (List.for_all (List.for_all (fun p -> List.length p = Script.pass_len)) (script 3));
  expect "another seed, another request script" (script 3 <> script 4);
  (* Every batch changes the graph, and the cycle restores it. *)
  let dyn = Dsd_graph.Dynamic.of_graph g in
  let effective =
    Array.for_all
      (fun (b : Script.batch) ->
        Array.for_all (fun (u, v) -> Dsd_graph.Dynamic.add_edge dyn u v) b.adds
        && Array.for_all (fun (u, v) -> Dsd_graph.Dynamic.remove_edge dyn u v) b.removes
        && Dsd_graph.Dynamic.m dyn = b.m_after)
      bs
  in
  expect "every delta op changes the graph" effective;
  expect "the delta cycle restores the graph" (G.equal (Dsd_graph.Dynamic.snapshot dyn) g);
  (* Miss keys: distinct within a client's pool and across clients. *)
  let keys =
    List.concat_map
      (fun c -> List.init Script.miss_pool (fun j -> Script.miss ~seed:3 ~client:c j))
      (List.init Script.clients Fun.id)
  in
  let distinct l = List.length (List.sort_uniq compare l) = List.length l in
  expect "miss requests are distinct" (distinct (List.map (fun (it : Script.item) -> it.req) keys));
  (* A cycle uses every miss key and every delta batch once, and the
     next cycle repeats it. *)
  let cycle c k =
    List.concat
      (List.init Script.passes_per_cycle (fun p ->
           Script.pass ~seed:3 bs ~client:c ((k * Script.passes_per_cycle) + p)))
  in
  let keys_of cls c =
    List.sort compare
      (List.filter_map
         (fun (it : Script.item) -> if it.cls = cls then Some it.key else None)
         (cycle c 0))
  in
  expect "a cycle uses each miss key once"
    (List.for_all
       (fun c -> List.length (keys_of Script.Miss c) = Script.miss_pool && distinct (keys_of Script.Miss c))
       (List.init Script.clients Fun.id));
  expect "a cycle applies each delta batch once"
    (keys_of Script.Delta 1 = List.sort compare (List.init Script.cycle string_of_int));
  expect "every cycle repeats the first"
    (List.for_all (fun c -> cycle c 0 = cycle c 2) (List.init Script.clients Fun.id))

(* The metric names and units match BENCHMARK.json's. *)
let spec () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let re = Str.regexp {|"name": "\([^"]*\)", "unit": "\([^"]*\)"|} in
  let rec scan pos acc =
    match Str.search_forward re text pos with
    | _ -> scan (Str.match_end ()) ((Str.matched_group 1 text, Str.matched_group 2 text) :: acc)
    | exception Not_found -> List.rev acc
  in
  let listed = scan 0 [] in
  let ours = List.map (fun (n, u, _) -> (n, u)) (Metrics.end_to_end @ Metrics.per_layer) in
  expect "BENCHMARK.json lists the driver's metrics" (listed = ours)

let () =
  percentile_rule ();
  checker ();
  generators ();
  spec ();
  if !failures > 0 then exit 1

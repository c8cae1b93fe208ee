(* The serve-mixed request script, a pure function of the seed.

   Two clients run a closed loop, one request per connection.  Each
   client's script is a sequence of passes of [pass_len] requests whose
   class mix is fixed and whose order and keys come from the seed.
   [passes_per_cycle] passes make a cycle, which uses every miss key of
   the client once and (client 1) every delta batch once; every cycle
   repeats the first request for request, so cycles are equal work:

   - hot: Density/Cds on a small key set over as733 and ca_hepth, which
     the daemon answers from its result LRU after warm-up;
   - miss: Query with seeded vertex sets, Topk and Hierarchy, drawn from
     a pool of [miss_pool] keys per client that the two clients do not
     share; between two uses of a key more than the LRU's 64 other keys
     are inserted, so each use misses;
   - delta + inc (client 1 only): an Apply_delta batch on as733_ba,
     then an incremental Density read of it.

   Only client 1 touches as733_ba, and the delta batches cycle: 32
   forward batches, then their inverses in reverse order, which restore
   the graph.  So the answer to every request is fixed by the seed,
   whatever the interleaving of the two clients.

   The proportions (per pass, client 0: 44 hot, 4 miss; client 1: 36
   hot, 4 miss, 4 delta + inc), the six hot keys, the miss pool and the
   Topk/Hierarchy parameters are assumptions, not measured traffic: no
   request log or traffic study exists to take them from.  Only the
   batch size, 8 ops, follows the repository's incremental experiment
   (BENCH_incremental.json).  Figures from this workload describe this
   mix, not real use. *)

module P = Dsd_serve.Protocol
module G = Dsd_graph.Graph
module Prng = Dsd_util.Prng

type cls = Hot | Miss | Delta | Inc

let cls_name = function Hot -> "hot" | Miss -> "miss" | Delta -> "delta" | Inc -> "inc"

type item = {
  cls : cls;
  req : P.request;
  key : string;  (* expected-answer key; for Delta the batch position *)
}

let clients = 2
let pass_len = 48
let miss_pool = 64
let forward_batches = 32
let cycle = 2 * forward_batches
let passes_per_cycle = 16
let delta_graph = "as733_ba"
let inc_psi = "triangle"
let inc_read = P.Density { graph = delta_graph; psi = inc_psi; algorithm = "incremental" }

let hot =
  [| P.Density { graph = "as733"; psi = "triangle"; algorithm = "coreexact" };
     P.Cds { graph = "as733"; psi = "edge"; algorithm = "coreexact" };
     P.Density { graph = "ca_hepth"; psi = "triangle"; algorithm = "coreexact" };
     P.Cds { graph = "ca_hepth"; psi = "edge"; algorithm = "peel" };
     P.Cds { graph = "ca_hepth"; psi = "triangle"; algorithm = "coreexact" };
     P.Density { graph = "as733"; psi = "edge"; algorithm = "peel" } |]

(* Requests the daemon answers before timing starts: every hot key
   (which also prepares each (graph, psi) state the misses use) and the
   first incremental read, which opens the incremental session. *)
let warm_up = Array.to_list hot @ [ inc_read ]

let rng seed base = Prng.create (Stand.shift seed base)

let vertices r ~n ~k = Array.init k (fun _ -> Prng.int r n)

(* The [j]-th miss of [client]: key slot j mod miss_pool. *)
let miss ~seed ~client j =
  let slot = j mod miss_pool in
  let r = rng seed (50_000 + (client * 1000) + slot) in
  let round = slot / 8 in
  let req =
    match slot mod 8 with
    | 0 | 1 | 2 | 3 ->
      P.Query
        { graph = "as733"; psi = (if slot mod 2 = 0 then "edge" else "triangle");
          vertices = vertices r ~n:1486 ~k:(1 + Prng.int r 3) }
    | 4 | 5 ->
      P.Query
        { graph = "ca_hepth"; psi = (if slot mod 2 = 0 then "edge" else "triangle");
          vertices = vertices r ~n:4000 ~k:(1 + Prng.int r 2) }
    | 6 -> P.Topk { graph = "as733"; psi = "triangle"; k = 2 + (client * 8) + round }
    | _ -> P.Hierarchy { graph = "as733"; psi = "triangle"; levels = 1 + (client * 8) + round }
  in
  { cls = Miss; req; key = Printf.sprintf "miss:%d:%d" client slot }

(* ---- the delta cycle ---- *)

type batch = { adds : (int * int) array; removes : (int * int) array; m_after : int }

let norm (u, v) = if u < v then (u, v) else (v, u)

(* Forward batches add 5 edges among the 200 oldest (highest-degree)
   vertices and remove 3 existing edges; the inverse batches undo them
   in reverse order. *)
let batches ~seed (g : G.t) =
  let set = Hashtbl.create (2 * G.m g) in
  G.iter_edges g ~f:(fun u v -> Hashtbl.replace set (norm (u, v)) ());
  let r = rng seed 7001 in
  let n = G.n g in
  let forward =
    Array.init forward_batches (fun _ ->
        let adds = ref [] in
        while List.length !adds < 5 do
          let e = norm (Prng.pair_distinct r 200) in
          if not (Hashtbl.mem set e) then begin
            Hashtbl.replace set e ();
            adds := e :: !adds
          end
        done;
        let removes = ref [] in
        while List.length !removes < 3 do
          let u = Prng.int r n in
          let nb = G.neighbors g u in
          if Array.length nb > 0 then begin
            let e = norm (u, nb.(Prng.int r (Array.length nb))) in
            if Hashtbl.mem set e && not (List.mem e !adds) then begin
              Hashtbl.remove set e;
              removes := e :: !removes
            end
          end
        done;
        (Array.of_list (List.rev !adds), Array.of_list (List.rev !removes)))
  in
  let m = ref (G.m g) in
  let step (adds, removes) =
    m := !m + Array.length adds - Array.length removes;
    { adds; removes; m_after = !m }
  in
  let fwd = Array.map step forward in
  let inv =
    Array.init forward_batches (fun i ->
        let adds, removes = forward.(forward_batches - 1 - i) in
        step (removes, adds))
  in
  Array.append fwd inv

(* The [d]-th delta and the incremental read after it. *)
let delta (bs : batch array) d =
  let pos = d mod cycle in
  let b = bs.(pos) in
  [ { cls = Delta;
      req = P.Apply_delta { graph = delta_graph; adds = b.adds; removes = b.removes };
      key = string_of_int pos };
    { cls = Inc; req = inc_read; key = Printf.sprintf "inc:%d" pos } ]

(* ---- passes ---- *)

type unit_ = U_hot | U_miss | U_delta

let mix client =
  let rep k x = List.init k (fun _ -> x) in
  if client = 0 then rep 44 U_hot @ rep 4 U_miss
  else rep 36 U_hot @ rep 4 U_miss @ rep 4 U_delta

let misses_per_pass client = List.length (List.filter (( = ) U_miss) (mix client))
let deltas_per_pass client = List.length (List.filter (( = ) U_delta) (mix client))

(* The requests of pass [p] of [client], in order.  Pass p repeats
   pass p mod passes_per_cycle. *)
let pass ~seed bs ~client p =
  let p = p mod passes_per_cycle in
  let units = Array.of_list (mix client) in
  let r = rng seed (60_000 + (client * 100_000) + p) in
  Prng.shuffle r units;
  let j = ref (p * misses_per_pass client) and d = ref (p * deltas_per_pass client) in
  List.concat_map
    (function
      | U_hot ->
        let i = Prng.int r (Array.length hot) in
        [ { cls = Hot; req = hot.(i); key = Printf.sprintf "hot:%d" i } ]
      | U_miss ->
        let it = miss ~seed ~client !j in
        incr j;
        [ it ]
      | U_delta ->
        let its = delta bs !d in
        incr d;
        its)
    (Array.to_list units)

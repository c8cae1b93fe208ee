(* The parametric-search driver every exact solver shares: the
   bisection's termination and bracketing on scripted feasibility
   oracles, a gap re-read on every step, and the arena's build-once,
   retarget-after accounting. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module FB = Dsd_core.Flow_build
module PS = Dsd_core.Param_search
module Obs = Dsd_obs.Control
module Counter = Dsd_obs.Counter

let r = 7. /. 3.

(* A scripted oracle for a search whose optimum is [r].  [witness]
   raises l to r itself (Query_dsd, Topk_lds), otherwise to the probed
   alpha (Exact).  It tracks the bounds it told the driver to set and
   checks every alpha is their midpoint. *)
let oracle ~witness ~l ~u =
  let l = ref l and u = ref u and probes = ref 0 in
  let decide alpha =
    incr probes;
    Helpers.check_float "alpha is the midpoint" ((!l +. !u) /. 2.) alpha;
    if alpha < r then begin
      let l' = if witness then r else alpha in
      l := l';
      PS.Raise l'
    end
    else begin
      u := alpha;
      PS.Lower
    end
  in
  (decide, probes)

let test_witness_raise () =
  let gap = 1e-3 in
  let decide, probes = oracle ~witness:true ~l:0. ~u:5. in
  let l, u = PS.bisect ~gap:(fun () -> gap) ~l:0. ~u:5. decide in
  Alcotest.(check bool) "u - l < gap" true (u -. l < gap);
  Alcotest.(check bool) "l <= r < u" true (l <= r && r < u);
  Helpers.check_float "l is the witnessed optimum" r l;
  Alcotest.(check bool) "probed" true (!probes > 1)

let test_alpha_raise () =
  let gap = 1e-3 in
  let decide, _ = oracle ~witness:false ~l:0. ~u:5. in
  let l, u = PS.bisect ~gap:(fun () -> gap) ~l:0. ~u:5. decide in
  Alcotest.(check bool) "u - l < gap" true (u -. l < gap);
  Alcotest.(check bool) "l < r <= u" true (l < r && r <= u)

let test_no_probe_when_closed () =
  let decide, probes = oracle ~witness:false ~l:1. ~u:1.5 in
  let l, u = PS.bisect ~gap:(fun () -> 1.) ~l:1. ~u:1.5 decide in
  Alcotest.(check int) "no probe" 0 !probes;
  Helpers.check_float "l kept" 1. l;
  Helpers.check_float "u kept" 1.5 u

let test_gap_reread () =
  (* A gap that shrinks after two probes: the search must run past the
     point where the first gap would have stopped it. *)
  let decide, probes = oracle ~witness:false ~l:0. ~u:8. in
  let gap () = if !probes < 2 then 4. else 1e-3 in
  let l, u = PS.bisect ~gap ~l:0. ~u:8. decide in
  Alcotest.(check bool) "u - l < shrunk gap" true (u -. l < 1e-3);
  Alcotest.(check bool) "ran past the first gap" true (!probes > 2);
  (* A gap that grows after three probes stops the search at once. *)
  let decide, probes = oracle ~witness:false ~l:0. ~u:8. in
  let gap () = if !probes < 3 then 1e-6 else infinity in
  ignore (PS.bisect ~gap ~l:0. ~u:8. decide);
  Alcotest.(check int) "stopped after the third probe" 3 !probes

(* A real search: Exact's decision on two disjoint cliques, with a
   counting prepare closure. *)
let g = Dsd_data.Paper_graphs.two_cliques ~a:5 ~b:3 ~bridge:false
let instances = Dsd_core.Enumerate.instances g P.triangle

let counting_prepare () =
  let calls = ref 0 in
  let prepare alpha =
    incr calls;
    FB.prepare FB.Clique_flow g P.triangle ~instances ~alpha
  in
  (prepare, calls)

let builds () = Counter.get Counter.Flow_networks_built
let retargets () = Counter.get Counter.Flow_retargets
let warm_starts () = Counter.get Counter.Flow_warm_starts

let test_arena_builds_once () =
  let prepare, calls = counting_prepare () in
  let arena = PS.arena () in
  Alcotest.(check bool) "starts unprepared" false (PS.is_prepared arena);
  Alcotest.(check int) "no nodes yet" 0 (PS.node_count arena);
  let probes = ref 0 and best = ref [||] in
  Obs.with_recording (fun () ->
      ignore
        (PS.bisect
           ~gap:(fun () -> Dsd_core.Density.stop_gap (G.n g))
           ~l:0. ~u:6.
           (fun alpha ->
             incr probes;
             let side = PS.probe arena ~prepare alpha in
             if Array.length side = 0 then PS.Lower
             else begin
               best := side;
               PS.Raise alpha
             end)));
  Alcotest.(check bool) "a real search" true (!probes > 2);
  Alcotest.(check int) "prepare ran once" 1 !calls;
  Alcotest.(check int) "flow_networks_built = 1" 1 (builds ());
  Alcotest.(check int) "flow_retargets = probes - 1" (!probes - 1)
    (retargets ());
  Alcotest.(check int) "warm by default" (!probes - 1) (warm_starts ());
  Alcotest.(check bool) "prepared" true (PS.is_prepared arena);
  Alcotest.(check bool) "node count recorded" true (PS.node_count arena > 0);
  Alcotest.(check (list int)) "the K5" [ 0; 1; 2; 3; 4 ]
    (Helpers.int_array_as_set !best)

let test_invalidate_rebuilds_once () =
  let prepare, calls = counting_prepare () in
  let arena = PS.arena () in
  Obs.with_recording (fun () ->
      ignore (PS.probe arena ~prepare 1.0);
      ignore (PS.probe ~warm:false arena ~prepare 2.0);
      PS.invalidate arena;
      Alcotest.(check bool) "unprepared after invalidate" false
        (PS.is_prepared arena);
      let rebuilt = PS.probe arena ~prepare 1.5 in
      let retargeted = PS.probe arena ~prepare 1.5 in
      Alcotest.(check (list int)) "same cut after the rebuild"
        (Helpers.int_array_as_set rebuilt)
        (Helpers.int_array_as_set retargeted));
  Alcotest.(check int) "prepare ran twice" 2 !calls;
  Alcotest.(check int) "one rebuild" 2 (builds ());
  Alcotest.(check int) "the other probes retarget" 2 (retargets ());
  Alcotest.(check int) "only the default probe is warm" 1 (warm_starts ())

let suite =
  [
    Alcotest.test_case "bisect: witness raises end with l <= r < u" `Quick
      test_witness_raise;
    Alcotest.test_case "bisect: alpha raises end with l < r <= u" `Quick
      test_alpha_raise;
    Alcotest.test_case "bisect: closed bracket makes no probe" `Quick
      test_no_probe_when_closed;
    Alcotest.test_case "bisect: gap re-read every step" `Quick test_gap_reread;
    Alcotest.test_case "arena: built once, retargeted after" `Quick
      test_arena_builds_once;
    Alcotest.test_case "arena: invalidate forces exactly one rebuild" `Quick
      test_invalidate_rebuilds_once;
  ]

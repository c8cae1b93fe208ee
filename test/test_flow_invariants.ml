(* Flow-invariant property suite on randomized networks, run for both
   Dinic and Edmonds-Karp: conservation at every non-terminal node,
   max-flow = min-cut capacity, residuals never negative beyond eps,
   and [reset_flow] restoring a bit-identical capacity vector.  Plus
   the pinned [set_cap] semantics: lowering a capacity below committed
   flow is *rejected* (never silently saturated) — the retarget fast
   path resets flow first. *)

module F = Dsd_flow.Flow_network
module Prng = Dsd_util.Prng

let solvers =
  [ ("dinic", Dsd_flow.Dinic.max_flow);
    ("edmonds-karp", Dsd_flow.Edmonds_karp.max_flow) ]

(* Seeded network with mixed integer/fractional capacities. *)
let random_network seed =
  let r = Prng.create seed in
  let n = 2 + Prng.int r 14 in
  let net = F.create n in
  let arcs = 1 + Prng.int r (4 * n) in
  for _ = 1 to arcs do
    let src = Prng.int r n and dst = Prng.int r n in
    if src <> dst then begin
      let cap =
        if Prng.int r 3 = 0 then Prng.float r 10.
        else float_of_int (1 + Prng.int r 20)
      in
      ignore (F.add_edge net ~src ~dst ~cap)
    end
  done;
  (net, n)

(* Net outflow of [v]: out.(v) holds forward arcs (+flow) and residual
   twins of incoming arcs (-flow of the forward arc), so the sum is
   outflow - inflow. *)
let excess net v =
  Array.fold_left
    (fun acc e -> acc +. F.arc_flow net e)
    0. (F.arcs_from net v)

let seeds = List.init 60 Fun.id

let test_conservation (_, max_flow) () =
  List.iter
    (fun seed ->
      let net, n = random_network seed in
      let s = 0 and t = n - 1 in
      let value = max_flow net ~s ~t in
      for v = 0 to n - 1 do
        let e = excess net v in
        let expect = if v = s then value else if v = t then -.value else 0. in
        if Float.abs (e -. expect) > 1e-6 then
          Alcotest.failf "%s node=%d excess %f, expected %f" (Helpers.seed_ctx seed) v e
            expect
      done)
    seeds

let test_flow_equals_cut (_, max_flow) () =
  List.iter
    (fun seed ->
      let net, n = random_network seed in
      let s = 0 and t = n - 1 in
      let value = max_flow net ~s ~t in
      let side = Dsd_flow.Min_cut.source_side net ~s in
      Alcotest.(check bool) "t not on source side" false side.(t);
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "%s flow = cut capacity" (Helpers.seed_ctx seed))
        value
        (Dsd_flow.Min_cut.cut_capacity net side))
    seeds

let test_residual_never_negative (_, max_flow) () =
  List.iter
    (fun seed ->
      let net, n = random_network seed in
      ignore (max_flow net ~s:0 ~t:(n - 1));
      for e = 0 to F.arc_count net - 1 do
        if F.residual net e < -.F.eps then
          Alcotest.failf "%s arc=%d residual %g < -eps" (Helpers.seed_ctx seed) e
            (F.residual net e)
      done)
    seeds

let test_reset_flow_bit_identical (_, max_flow) () =
  List.iter
    (fun seed ->
      let net, n = random_network seed in
      let caps0 =
        Array.init (F.arc_count net) (fun e ->
            Int64.bits_of_float (F.arc_cap net e))
      in
      let v1 = max_flow net ~s:0 ~t:(n - 1) in
      F.reset_flow net;
      for e = 0 to F.arc_count net - 1 do
        if Int64.bits_of_float (F.arc_cap net e) <> caps0.(e) then
          Alcotest.failf "%s arc=%d capacity changed" (Helpers.seed_ctx seed) e;
        if F.arc_flow net e <> 0. then
          Alcotest.failf "%s arc=%d flow not zeroed" (Helpers.seed_ctx seed) e
      done;
      let v2 = max_flow net ~s:0 ~t:(n - 1) in
      Alcotest.(check (float 0.))
        (Printf.sprintf "%s re-solve identical" (Helpers.seed_ctx seed))
        v1 v2)
    seeds

(* ---- set_cap / eps audit (pinned behaviour: reject, don't saturate) ---- *)

let test_set_cap_validation () =
  let net = F.create 2 in
  let e = F.add_edge net ~src:0 ~dst:1 ~cap:5. in
  Alcotest.check_raises "arc out of range"
    (Invalid_argument "Flow_network.set_cap: arc out of range")
    (fun () -> F.set_cap net 99 1.);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Flow_network.set_cap: negative capacity")
    (fun () -> F.set_cap net e (-1.));
  Alcotest.check_raises "nan capacity"
    (Invalid_argument "Flow_network.set_cap: negative capacity")
    (fun () -> F.set_cap net e Float.nan)

let test_set_cap_below_committed_flow_rejected () =
  let net = F.create 2 in
  let e = F.add_edge net ~src:0 ~dst:1 ~cap:5. in
  Helpers.check_float "saturating flow" 5. (Dsd_flow.Dinic.max_flow net ~s:0 ~t:1);
  Alcotest.check_raises "lowering under flow rejected"
    (Invalid_argument "Flow_network.set_cap: capacity below committed flow")
    (fun () -> F.set_cap net e 3.);
  (* Exactly the committed flow is allowed: residual goes to ~0 but
     never negative beyond eps. *)
  F.set_cap net e 5.;
  Alcotest.(check bool) "residual >= -eps" true (F.residual net e >= -.F.eps)

let test_set_cap_after_reset_flow () =
  let net = F.create 2 in
  let e = F.add_edge net ~src:0 ~dst:1 ~cap:5. in
  ignore (Dsd_flow.Dinic.max_flow net ~s:0 ~t:1);
  F.reset_flow net;
  F.set_cap net e 3.;
  Helpers.check_float "re-solve at lowered capacity" 3.
    (Dsd_flow.Dinic.max_flow net ~s:0 ~t:1)

let test_set_cap_raise_finds_more_flow () =
  (* Raising above committed flow composes with the residual state: the
     solver finds exactly the extra headroom. *)
  let net = F.create 2 in
  let e = F.add_edge net ~src:0 ~dst:1 ~cap:2. in
  Helpers.check_float "first pass" 2. (Dsd_flow.Dinic.max_flow net ~s:0 ~t:1);
  F.set_cap net e 5.;
  Helpers.check_float "incremental flow" 3. (Dsd_flow.Dinic.max_flow net ~s:0 ~t:1)

let test_set_cap_infinity () =
  let net = F.create 2 in
  let e = F.add_edge net ~src:0 ~dst:1 ~cap:1. in
  F.set_cap net e infinity;
  Helpers.check_float "infinite cap readable" infinity (F.arc_cap net e)

(* ---- the lazily built adjacency CSR on a live network ---- *)

(* One live network driven through a random script of arena growth
   ([add_node], [add_edge]), capacity edits ([set_cap] above committed
   flow, [set_cap_carry] + the matching [restore_arc*] drain) and
   solves.  Each edit invalidates or leaves the CSR in place, so every
   solve runs on a CSR built at a different point of the arena's
   history.  After each solve the flow value and the source side must
   equal those of a network rebuilt from scratch from the same arc
   list, and after every step [arcs_from v] must list exactly [v]'s
   arc ids in insertion order.  Integer capacities keep every flow
   exact, so the two source sides compare bit for bit. *)
let live_network_matches_rebuild (name, max_flow) seed =
  let r = Prng.create seed in
  let s = 0 and t = 1 in
  let net = F.create (2 + Prng.int r 4) in
  (* (src, dst) per forward arc, in creation order; caps live in [net]. *)
  let arcs = ref [||] in
  let add_edge src dst =
    let cap = float_of_int (Prng.int r 12) in
    let id = F.add_edge net ~src ~dst ~cap in
    assert (id = 2 * Array.length !arcs);
    arcs := Array.append !arcs [| (src, dst) |]
  in
  let check_order step =
    for v = 0 to F.node_count net - 1 do
      let expect =
        List.filter
          (fun e ->
            let src, dst = !arcs.(e / 2) in
            (if e land 1 = 0 then src else dst) = v)
          (List.init (F.arc_count net) Fun.id)
      in
      if Array.to_list (F.arcs_from net v) <> expect then
        Alcotest.failf "%s step %d: arcs_from %d out of insertion order"
          (Helpers.seed_ctx seed) step v
    done
  in
  let rebuild () =
    let fresh = F.create (F.node_count net) in
    Array.iteri
      (fun i (src, dst) ->
        ignore (F.add_edge fresh ~src ~dst ~cap:(F.arc_cap net (2 * i))))
      !arcs;
    fresh
  in
  let solve_live step =
    if name = "dinic" then begin
      let value, side = Dsd_flow.Min_cut.solve net ~s ~t in
      if side <> Dsd_flow.Min_cut.source_side net ~s then
        Alcotest.failf "%s step %d: Dinic's source side differs from the \
                        residual BFS" (Helpers.seed_ctx seed) step;
      (value, side)
    end
    else begin
      ignore (max_flow net ~s ~t);
      (F.flow_value net ~s, Dsd_flow.Min_cut.source_side net ~s)
    end
  in
  let steps = 10 + Prng.int r 30 in
  for step = 1 to steps do
    let m = Array.length !arcs in
    (match Prng.int r 6 with
    | 0 -> ignore (F.add_node net)
    | 1 | 2 ->
      let n = F.node_count net in
      let src = Prng.int r n and dst = Prng.int r n in
      if src <> dst then add_edge src dst
    | 3 when m > 0 ->
      (* Raise (or keep) a capacity: never below committed flow. *)
      let e = 2 * Prng.int r m in
      let floor = Float.ceil (Float.max 0. (F.arc_flow net e)) in
      F.set_cap net e (floor +. float_of_int (Prng.int r 5))
    | 4 when m > 0 ->
      (* Lower a capacity under committed flow and repair it with the
         drain that matches the arc's endpoints. *)
      let i = Prng.int r m in
      let src, dst = !arcs.(i) in
      if src <> t && dst <> s then begin
        let e = 2 * i in
        let lowered = Prng.int r (1 + int_of_float (F.arc_cap net e)) in
        F.set_cap_carry net e (float_of_int lowered);
        ignore
          (if dst = t then F.restore_arc net ~s e
           else if src = s then F.restore_arc_head net ~sink:t e
           else F.restore_arc_full net ~s ~sink:t e)
      end
    | _ ->
      let value, side = solve_live step in
      let fresh = rebuild () in
      ignore (max_flow fresh ~s ~t);
      let value' = F.flow_value fresh ~s in
      let side' = Dsd_flow.Min_cut.source_side fresh ~s in
      if value <> value' || side <> side' then
        Alcotest.failf "%s step %d: live flow %g vs rebuilt %g, sides %s"
          (Helpers.seed_ctx seed) step value value'
          (if side = side' then "equal" else "differ"));
    check_order step
  done;
  true

let suite =
  List.concat_map
    (fun ((name, _) as solver) ->
      [ Alcotest.test_case (name ^ ": conservation at non-terminals") `Quick
          (test_conservation solver);
        Alcotest.test_case (name ^ ": max-flow = min-cut capacity") `Quick
          (test_flow_equals_cut solver);
        Alcotest.test_case (name ^ ": residual >= -eps") `Quick
          (test_residual_never_negative solver);
        Alcotest.test_case (name ^ ": reset_flow bit-identical caps") `Quick
          (test_reset_flow_bit_identical solver) ])
    solvers
  @ List.map
      (fun ((name, _) as solver) ->
        Helpers.qtest ~count:150
          (name ^ ": live network with lazy CSR = rebuilt network")
          QCheck.small_int
          (live_network_matches_rebuild solver))
      solvers
  @ [
      Alcotest.test_case "set_cap validation" `Quick test_set_cap_validation;
      Alcotest.test_case "set_cap below committed flow rejected" `Quick
        test_set_cap_below_committed_flow_rejected;
      Alcotest.test_case "set_cap after reset_flow" `Quick
        test_set_cap_after_reset_flow;
      Alcotest.test_case "set_cap raise finds more flow" `Quick
        test_set_cap_raise_finds_more_flow;
      Alcotest.test_case "set_cap to infinity" `Quick test_set_cap_infinity;
    ]

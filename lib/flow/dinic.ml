module F = Flow_network

(* Level graph + DFS blocking flow with per-node arc cursors ("current
   arc" optimisation), read straight off the arena's arrays.  Float
   capacities: an arc is usable while its residual exceeds [F.eps]. *)

(* [Stdlib.min] specialised to floats (same result, NaN included). *)
let fmin (a : float) b = if a <= b then a else b

(* Runs Dinic to a maximum flow and returns the flow pushed by this
   call together with the level array of the final, failing BFS: a
   node has a level >= 0 iff it is reachable from [s] in the residual
   graph of the maximum flow. *)
let solve net ~s ~t =
  let n = F.node_count net in
  if s = t then invalid_arg "Dinic.max_flow: s = t";
  let off, adj = F.adjacency net in
  let dst = F.heads net and cap = F.caps net and flow = F.flows net in
  let eps = F.eps in
  let level = Array.make n (-1) in
  (* [cursor.(u)] indexes [adj]: the next arc of [u] to try. *)
  let cursor = Array.make n 0 in
  let queue = Array.make n 0 in
  (* BFS levels from [s], stopping as soon as [t] is labelled: nodes at
     [t]'s level or beyond cannot lie on a shortest augmenting path, and
     every level below [t]'s is already complete at that point. *)
  let build_levels () =
    Dsd_obs.Counter.incr Dsd_obs.Counter.Flow_level_builds;
    Array.fill level 0 n (-1);
    level.(s) <- 0;
    queue.(0) <- s;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      let lv = level.(u) + 1 in
      let i = ref off.(u) and stop = off.(u + 1) in
      while !i < stop do
        let e = adj.(!i) in
        let v = dst.(e) in
        if level.(v) < 0 && cap.(e) -. flow.(e) > eps then begin
          level.(v) <- lv;
          if v = t then begin
            i := stop;
            head := !tail
          end
          else begin
            queue.(!tail) <- v;
            incr tail
          end
        end;
        incr i
      done
    done;
    level.(t) >= 0
  in
  (* Blocking-flow DFS: push up to [limit] from [u] through successive
     admissible arcs, committing an arc's flow once the subtree below
     returns.  Admissible arcs climb one level; a node at or past the
     sink's level [lt] other than [t] itself cannot reach [t], so the
     DFS never enters it. *)
  let rec dfs lt u limit =
    if u = t then begin
      Dsd_obs.Counter.incr Dsd_obs.Counter.Flow_augmentations;
      limit
    end
    else begin
      let pushed = ref 0. in
      let continue = ref true in
      let lv = level.(u) + 1 in
      let stop = off.(u + 1) in
      while !continue && cursor.(u) < stop do
        let e = adj.(cursor.(u)) in
        let v = dst.(e) in
        let r = cap.(e) -. flow.(e) in
        if level.(v) = lv && (lv < lt || v = t) && r > eps then begin
          let f = dfs lt v (fmin (limit -. !pushed) r) in
          if f > eps then begin
            flow.(e) <- flow.(e) +. f;
            flow.(e lxor 1) <- flow.(e lxor 1) -. f;
            pushed := !pushed +. f;
            if limit -. !pushed <= eps then continue := false
          end
          else
            (* Dead end below; advance past this arc. *)
            cursor.(u) <- cursor.(u) + 1
        end
        else cursor.(u) <- cursor.(u) + 1
      done;
      !pushed
    end
  in
  let total = ref 0. in
  while build_levels () do
    Array.blit off 0 cursor 0 n;
    let lt = level.(t) in
    let f = ref (dfs lt s infinity) in
    while !f > eps do
      total := !total +. !f;
      f := dfs lt s infinity
    done
  done;
  (!total, level)

let max_flow net ~s ~t = fst (solve net ~s ~t)

let max_flow_cut net ~s ~t =
  let total, level = solve net ~s ~t in
  (total, Array.map (fun l -> l >= 0) level)

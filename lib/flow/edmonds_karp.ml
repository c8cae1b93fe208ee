module F = Flow_network

let max_flow net ~s ~t =
  if s = t then invalid_arg "Edmonds_karp.max_flow: s = t";
  let n = F.node_count net in
  let off, adj = F.adjacency net in
  let dst = F.heads net and cap = F.caps net and flow = F.flows net in
  let parent_arc = Array.make n (-1) in
  let visited = Array.make n false in
  let queue = Array.make n 0 in
  (* BFS for a shortest augmenting path, stopping once [t] is reached;
     [parent_arc] then spells the path backwards. *)
  let find_path () =
    Dsd_obs.Counter.incr Dsd_obs.Counter.Flow_level_builds;
    Array.fill visited 0 n false;
    Array.fill parent_arc 0 n (-1);
    visited.(s) <- true;
    queue.(0) <- s;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      let i = ref off.(u) and stop = off.(u + 1) in
      while !i < stop do
        let e = adj.(!i) in
        let v = dst.(e) in
        if (not visited.(v)) && cap.(e) -. flow.(e) > F.eps then begin
          visited.(v) <- true;
          parent_arc.(v) <- e;
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
    visited.(t)
  in
  (* The twin arc points back at the tail of [e]. *)
  let arc_src e = dst.(e lxor 1) in
  let total = ref 0. in
  while find_path () do
    Dsd_obs.Counter.incr Dsd_obs.Counter.Flow_augmentations;
    (* Bottleneck along the stored path. *)
    let bottleneck = ref infinity in
    let v = ref t in
    while !v <> s do
      let e = parent_arc.(!v) in
      let r = cap.(e) -. flow.(e) in
      if not (!bottleneck <= r) then bottleneck := r;
      v := arc_src e
    done;
    let v = ref t in
    while !v <> s do
      let e = parent_arc.(!v) in
      flow.(e) <- flow.(e) +. !bottleneck;
      flow.(e lxor 1) <- flow.(e lxor 1) -. !bottleneck;
      v := arc_src e
    done;
    total := !total +. !bottleneck
  done;
  !total

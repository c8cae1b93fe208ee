module F = Flow_network

let source_side net ~s =
  let n = F.node_count net in
  let off, adj = F.adjacency net in
  let dst = F.heads net and cap = F.caps net and flow = F.flows net in
  let side = Array.make n false in
  let queue = Array.make n 0 in
  side.(s) <- true;
  queue.(0) <- s;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for i = off.(u) to off.(u + 1) - 1 do
      let e = adj.(i) in
      let v = dst.(e) in
      if (not side.(v)) && cap.(e) -. flow.(e) > F.eps then begin
        side.(v) <- true;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  side

let solve net ~s ~t =
  (* Dinic's final, failing level BFS is a full residual BFS from [s],
     so it already is the source side.  [Dinic] returns only the flow
     pushed by this call; under a warm start the network already
     carries flow from earlier probes, so report the total committed
     value instead of the delta. *)
  let (_ : float), side = Dinic.max_flow_cut net ~s ~t in
  (F.flow_value net ~s, side)

let cut_capacity net side =
  let off, adj = F.adjacency net in
  let dst = F.heads net and cap = F.caps net in
  let total = ref 0. in
  for u = 0 to F.node_count net - 1 do
    if side.(u) then
      for i = off.(u) to off.(u + 1) - 1 do
        (* Only original forward arcs carry capacity; twins have cap 0
           and contribute nothing. *)
        let e = adj.(i) in
        if not side.(dst.(e)) then total := !total +. cap.(e)
      done
  done;
  !total

(* A flat arena: arc [e] lives at index [e] of [dst]/[cap]/[flow], its
   residual twin at [e lxor 1], so the tail of [e] is [dst.(e lxor 1)].
   The three arrays grow by doubling; only the first [arcs] slots are
   live.  Per-node adjacency is a CSR ([off]/[adj]) derived from the
   twin heads on demand, not maintained by [add_edge]. *)
type t = {
  mutable n : int;
  mutable dst : int array;         (* arc -> head node *)
  mutable cap : float array;       (* arc -> capacity *)
  mutable flow : float array;      (* arc -> current flow (may be < 0 on twins) *)
  mutable arcs : int;
  (* Arc ids leaving node [v] are [adj.(off.(v)) .. adj.(off.(v+1) - 1)],
     in increasing id order — the order [add_edge] created them in.
     Valid only while [csr_valid]; [add_node]/[add_edge] clear it and
     the next traversal rebuilds it. *)
  mutable off : int array;
  mutable adj : int array;
  mutable csr_valid : bool;
  (* Scratch for [restore_arc]'s path searches: a node is visited in
     the current search iff [drain_mark.(u) = drain_epoch], so starting
     a new search is one increment instead of an O(n) clear (or worse,
     an O(n) allocation) per drained path. *)
  mutable drain_mark : int array;
  mutable drain_epoch : int;
}

let eps = Dsd_util.Float_guard.eps

let create n =
  {
    n;
    dst = Array.make 64 0;
    cap = Array.make 64 0.;
    flow = Array.make 64 0.;
    arcs = 0;
    off = [||];
    adj = [||];
    csr_valid = false;
    drain_mark = [||];
    drain_epoch = 0;
  }

let node_count t = t.n
let edge_count t = t.arcs / 2
let arc_count t = t.arcs

let add_node t =
  let id = t.n in
  t.n <- t.n + 1;
  t.csr_valid <- false;
  id

let grow t =
  let size = 2 * Array.length t.dst in
  let extend a fill =
    let b = Array.make size fill in
    Array.blit a 0 b 0 t.arcs;
    b
  in
  t.dst <- extend t.dst 0;
  t.cap <- extend t.cap 0.;
  t.flow <- extend t.flow 0.

let add_edge t ~src ~dst ~cap =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Flow_network.add_edge: node out of range";
  if not (cap >= 0.) then invalid_arg "Flow_network.add_edge: negative capacity";
  if t.arcs + 2 > Array.length t.dst then grow t;
  let id = t.arcs in
  t.dst.(id) <- dst;
  t.cap.(id) <- cap;
  t.flow.(id) <- 0.;
  t.dst.(id + 1) <- src;
  t.cap.(id + 1) <- 0.;
  t.flow.(id + 1) <- 0.;
  t.arcs <- id + 2;
  t.csr_valid <- false;
  id

(* Counting sort of the arc ids by tail.  Scanning ids upwards and
   placing each at its tail's next free slot keeps every node's arcs in
   increasing id order, so traversals visit arcs exactly as they were
   added.  The buffers are reused when they are large enough. *)
let build_csr t =
  let n = t.n and m = t.arcs in
  if Array.length t.off < n + 1 then t.off <- Array.make (n + 1) 0
  else Array.fill t.off 0 (n + 1) 0;
  if Array.length t.adj < m then t.adj <- Array.make (max m 1) 0;
  let off = t.off and adj = t.adj and dst = t.dst in
  for e = 0 to m - 1 do
    let u = dst.(e lxor 1) in
    off.(u + 1) <- off.(u + 1) + 1
  done;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  (* [off.(v)] is now node [v]'s start; use it as the fill cursor and
     shift back afterwards. *)
  for e = 0 to m - 1 do
    let u = dst.(e lxor 1) in
    adj.(off.(u)) <- e;
    off.(u) <- off.(u) + 1
  done;
  for v = n downto 1 do
    off.(v) <- off.(v - 1)
  done;
  off.(0) <- 0;
  t.csr_valid <- true

let ensure_csr t = if not t.csr_valid then build_csr t

let adjacency t =
  ensure_csr t;
  (t.off, t.adj)

let heads t = t.dst
let caps t = t.cap
let flows t = t.flow

let check_arc t e name =
  if e < 0 || e >= t.arcs then
    invalid_arg ("Flow_network." ^ name ^ ": arc out of range")

let arc_dst t e = check_arc t e "arc_dst"; t.dst.(e)
let arc_cap t e = check_arc t e "arc_cap"; t.cap.(e)
let arc_flow t e = check_arc t e "arc_flow"; t.flow.(e)

let set_cap t e cap =
  check_arc t e "set_cap";
  if not (cap >= 0.) then invalid_arg "Flow_network.set_cap: negative capacity";
  (* Lowering a capacity below flow already pushed through the arc
     would leave a negative residual the solvers never repair; callers
     must [reset_flow] first (the retarget fast path does). *)
  if cap +. eps < t.flow.(e) then
    invalid_arg "Flow_network.set_cap: capacity below committed flow";
  t.cap.(e) <- cap

let set_cap_carry t e cap =
  check_arc t e "set_cap_carry";
  if not (cap >= 0.) then
    invalid_arg "Flow_network.set_cap_carry: negative capacity";
  (* Unlike [set_cap], committed flow is kept even when it now exceeds
     the capacity; callers must follow up with [restore_arc] before
     handing the network back to a solver. *)
  t.cap.(e) <- cap

let residual t e = check_arc t e "residual"; t.cap.(e) -. t.flow.(e)

let push t e f =
  check_arc t e "push";
  t.flow.(e) <- t.flow.(e) +. f;
  let twin = e lxor 1 in
  t.flow.(twin) <- t.flow.(twin) -. f

let iter_arcs_from t v ~f =
  ensure_csr t;
  for i = t.off.(v) to t.off.(v + 1) - 1 do
    f t.adj.(i)
  done

let arcs_from t v =
  ensure_csr t;
  Array.sub t.adj t.off.(v) (t.off.(v + 1) - t.off.(v))

let reset_flow t = Array.fill t.flow 0 t.arcs 0.

let flow_value t ~s =
  (* Net outflow at [s]: twins of arcs into [s] carry the negated
     incoming flow, so summing over every arc leaving [s] in the CSR
     yields outflow - inflow. *)
  ensure_csr t;
  let total = ref 0. in
  for i = t.off.(s) to t.off.(s + 1) - 1 do
    total := !total +. t.flow.(t.adj.(i))
  done;
  !total

(* Push [f] along every arc of a drain path. *)
let push_path t path f = List.iter (fun a -> push t a f) path

(* Walk backwards from [v] to [s] along flow-carrying arcs.  From node
   [u] we traverse arc ids [a] with [flow a < -eps]: those are the
   residual twins of arcs currently pushing flow *into* [u], and
   [dst a] is the upstream node.  The epoch mark persists across
   backtracking inside one search — a dead end stays dead because no
   flow changes mid-search. *)
let rec drain_path t ~s u path =
  if u = s then Some path
  else begin
    t.drain_mark.(u) <- t.drain_epoch;
    let stop = t.off.(u + 1) in
    let result = ref None in
    let i = ref t.off.(u) in
    while Option.is_none !result && !i < stop do
      let a = t.adj.(!i) in
      incr i;
      if t.flow.(a) < -.eps then begin
        let w = t.dst.(a) in
        if t.drain_mark.(w) <> t.drain_epoch then
          result := drain_path t ~s w (a :: path)
      end
    done;
    !result
  end

(* Walk forwards from [v] towards [dst] along arcs with committed
   positive flow — the mirror image of [drain_path], used to repair the
   *head* side of a lowered arc by cancelling downstream flow. *)
let rec drain_path_fwd t ~dst u path =
  if u = dst then Some path
  else begin
    t.drain_mark.(u) <- t.drain_epoch;
    let stop = t.off.(u + 1) in
    let result = ref None in
    let i = ref t.off.(u) in
    while Option.is_none !result && !i < stop do
      let a = t.adj.(!i) in
      incr i;
      if t.flow.(a) > eps then begin
        let w = t.dst.(a) in
        if t.drain_mark.(w) <> t.drain_epoch then
          result := drain_path_fwd t ~dst w (a :: path)
      end
    done;
    !result
  end

(* Every drain entry point: the path searches read the CSR and the
   epoch marks. *)
let prepare_drain t =
  ensure_csr t;
  if Array.length t.drain_mark < t.n then begin
    t.drain_mark <- Array.make t.n 0;
    t.drain_epoch <- 0
  end

let restore_arc t ~s e =
  check_arc t e "restore_arc";
  let excess = t.flow.(e) -. t.cap.(e) in
  if excess <= eps then 0
  else begin
    (* Pull the arc back to capacity; its tail is now a surplus node. *)
    push t e (-.excess);
    let v = t.dst.(e lxor 1) in
    prepare_drain t;
    let remaining = ref excess in
    let paths = ref 0 in
    while !remaining > eps do
      t.drain_epoch <- t.drain_epoch + 1;
      match drain_path t ~s v [] with
      | None ->
        invalid_arg "Flow_network.restore_arc: no flow-carrying path to source"
      | Some path ->
        (* Pushing along residual twins cancels the committed flow on
           the corresponding upstream arcs. *)
        let bottleneck =
          List.fold_left
            (fun acc a -> Float.min acc (-.t.flow.(a)))
            !remaining path
        in
        push_path t path bottleneck;
        remaining := !remaining -. bottleneck;
        incr paths
    done;
    Dsd_obs.Counter.add Dsd_obs.Counter.Flow_excess_drained !paths;
    !paths
  end

(* The first arc leaving [v] that satisfies [carries] and closes a
   flow-carrying path back to [v] through [search] — a cycle of
   circulating flow through [v]. *)
let find_cycle t v ~carries ~search =
  let stop = t.off.(v + 1) in
  let cycle = ref None in
  let i = ref t.off.(v) in
  while Option.is_none !cycle && !i < stop do
    let a = t.adj.(!i) in
    incr i;
    if carries t.flow.(a) then begin
      t.drain_epoch <- t.drain_epoch + 1;
      cycle := search t.dst.(a) [ a ]
    end
  done;
  !cycle

(* [v] receives [amount] more flow than it sends (a lowered *outgoing*
   arc left it with a surplus): cancel incoming flow back to [s], or
   around flow-carrying cycles through [v] when the inflow is purely
   circulatory. *)
let drain_surplus t ~s v amount =
  let remaining = ref amount in
  let paths = ref 0 in
  while !remaining > eps do
    t.drain_epoch <- t.drain_epoch + 1;
    let path =
      match drain_path t ~s v [] with
      | Some _ as p -> p
      | None ->
        (* All remaining inflow circulates through [v]: pick an in-arc
           and walk its upstream side back around to [v]. *)
        find_cycle t v
          ~carries:(fun f -> f < -.eps)
          ~search:(fun w path -> drain_path t ~s:v w path)
    in
    match path with
    | None ->
      invalid_arg "Flow_network.drain_surplus: no flow-carrying path or cycle"
    | Some path ->
      let bottleneck =
        List.fold_left
          (fun acc a -> Float.min acc (-.t.flow.(a)))
          !remaining path
      in
      push_path t path bottleneck;
      remaining := !remaining -. bottleneck;
      incr paths
  done;
  !paths

(* [v] sends [amount] more flow than it receives (a lowered *incoming*
   arc left it with a deficit): cancel outgoing flow forward to the
   sink, or around flow-carrying cycles through [v]. *)
let drain_deficit t ~sink v amount =
  let remaining = ref amount in
  let paths = ref 0 in
  while !remaining > eps do
    t.drain_epoch <- t.drain_epoch + 1;
    let path =
      match drain_path_fwd t ~dst:sink v [] with
      | Some _ as p -> p
      | None ->
        find_cycle t v
          ~carries:(fun f -> f > eps)
          ~search:(fun w path -> drain_path_fwd t ~dst:v w path)
    in
    match path with
    | None ->
      invalid_arg "Flow_network.drain_deficit: no flow-carrying path or cycle"
    | Some path ->
      let bottleneck =
        List.fold_left
          (fun acc a -> Float.min acc t.flow.(a))
          !remaining path
      in
      push_path t path (-.bottleneck);
      remaining := !remaining -. bottleneck;
      incr paths
  done;
  !paths

let restore_arc_head t ~sink e =
  check_arc t e "restore_arc_head";
  let excess = t.flow.(e) -. t.cap.(e) in
  if excess <= eps then 0
  else begin
    (* Pull the arc back to capacity.  The tail must be a
       non-conserving node (the source); the head is left with a
       deficit that we repair by cancelling its downstream flow. *)
    push t e (-.excess);
    let v = t.dst.(e) in
    prepare_drain t;
    let paths = drain_deficit t ~sink v excess in
    Dsd_obs.Counter.add Dsd_obs.Counter.Flow_excess_drained paths;
    paths
  end

let restore_arc_full t ~s ~sink e =
  check_arc t e "restore_arc_full";
  let excess = t.flow.(e) -. t.cap.(e) in
  if excess <= eps then 0
  else begin
    (* An internal arc: pulling it back to capacity leaves a surplus at
       the tail *and* a deficit at the head; both must be repaired for
       conservation to hold again.

       Some of the lowered flow may have circulated: the arc fed a path
       head -> ... -> tail that closed a cycle through it.  That flow
       can reach neither the source nor the sink, so cancel it first —
       each head->tail path repairs one unit of both imbalances.  By
       flow decomposition the remainder splits into equal s->tail and
       head->sink parts, which the directional drains handle. *)
    push t e (-.excess);
    let tail = t.dst.(e lxor 1) in
    let head = t.dst.(e) in
    prepare_drain t;
    let remaining = ref excess in
    let bridges = ref 0 in
    let exhausted = ref false in
    while (not !exhausted) && !remaining > eps do
      t.drain_epoch <- t.drain_epoch + 1;
      match drain_path_fwd t ~dst:tail head [] with
      | None -> exhausted := true
      | Some path ->
        let bottleneck =
          List.fold_left
            (fun acc a -> Float.min acc t.flow.(a))
            !remaining path
        in
        push_path t path (-.bottleneck);
        remaining := !remaining -. bottleneck;
        incr bridges
    done;
    let paths =
      !bridges
      +
      if !remaining > eps then
        drain_surplus t ~s tail !remaining
        + drain_deficit t ~sink head !remaining
      else 0
    in
    Dsd_obs.Counter.add Dsd_obs.Counter.Flow_excess_drained paths;
    paths
  end

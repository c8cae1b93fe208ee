(** Dinic's maximum-flow algorithm.

    O(V^2 E) in general and far better in practice on the shallow
    layered networks produced by DSD binary search (source -> vertices
    -> clique nodes -> sink is depth 3).  This plays the role of
    Gusfield's min-cut routine in the paper's Exact/CoreExact; both
    compute exact min-cuts, and DSD only consumes the cut. *)

(** [max_flow net ~s ~t] saturates the network in place and returns the
    flow pushed {e by this call}.  The solver works purely on residual
    capacities, so it may be invoked on any feasible intermediate state
    — in particular on a warm-started network that still carries the
    flow of a previous probe (after {!Flow_network.restore_arc} repaired
    any lowered arcs) — and will augment it to a maximum flow.  Use
    {!Flow_network.flow_value} for the total committed value. *)
val max_flow : Flow_network.t -> s:int -> t:int -> float

(** [max_flow_cut net ~s ~t] is {!max_flow} that also returns the
    source side of a minimum cut: the nodes reachable from [s] in the
    residual graph.  It is read off the final, failing level BFS, so it
    costs no extra traversal; it equals {!Min_cut.source_side} run on
    the saturated network. *)
val max_flow_cut : Flow_network.t -> s:int -> t:int -> float * bool array

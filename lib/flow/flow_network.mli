(** Directed flow networks with float capacities in residual-arc form.

    The network is a flat arena.  Every [add_edge] appends a forward arc
    and a zero-capacity reverse arc at adjacent indices of three arc
    arrays (head, capacity, flow), so the reverse of arc [e] is
    [e lxor 1] and the tail of [e] is the head of [e lxor 1] — the
    standard residual-graph layout shared by the Dinic and
    Edmonds-Karp solvers.

    Per-node adjacency is not stored per node.  It is a CSR (node
    offsets plus arc ids) derived from the twin heads by a counting
    sort, built lazily by the first traversal after an [add_node] or
    [add_edge] and reused until the next one.  Each node lists its arcs
    in increasing arc id, i.e. in the order they were added, so solver
    traversal order — and hence every answer — does not depend on when
    the CSR was built.

    Capacities are floats because the DSD binary search guesses a
    fractional density [alpha] (arc capacities [alpha * |V_Psi|],
    Algorithm 1 line 8).  [infinity] is a legal capacity (the
    clique-node-to-vertex arcs of Algorithm 1 line 11). *)

type t

(** [create n] makes a network with nodes [0 .. n-1] and no arcs. *)
val create : int -> t

(** Number of nodes. *)
val node_count : t -> int

(** Number of [add_edge] calls so far. *)
val edge_count : t -> int

(** [add_node t] appends a fresh node and returns its id ([node_count]
    before the call).  Existing arcs, flow and node ids are untouched,
    so an arena can grow in place between solver runs — the incremental
    subsystem appends one node per newly discovered pattern instance.
    Invalidates the adjacency CSR. *)
val add_node : t -> int

(** [add_edge t ~src ~dst ~cap] adds a forward arc of capacity [cap]
    (must be ≥ 0; may be [infinity]) and its residual twin.  Returns
    the forward arc id (always even; the twin is the id plus one).
    Invalidates the adjacency CSR. *)
val add_edge : t -> src:int -> dst:int -> cap:float -> int

(** {1 Low-level accessors used by the solvers} *)

val arc_count : t -> int
val arc_dst : t -> int -> int
val arc_cap : t -> int -> float

(** Current flow on an arc (negative on residual twins). *)
val arc_flow : t -> int -> float

(** [set_cap t arc cap] overwrites the capacity of [arc] — the
    parametric-flow primitive behind {!Flow_build}'s alpha retargeting
    (only the alpha-dependent arc class changes between binary-search
    iterations, so the network is built once and re-capacitated in
    O(V)).

    @raise Invalid_argument if [arc] is out of range, [cap] is negative
    (or NaN), or [cap] lies more than [eps] below the flow already
    pushed through the arc — lowering under committed flow is rejected
    rather than saturated; call {!reset_flow} first. *)
val set_cap : t -> int -> float -> unit

(** [set_cap_carry t arc cap] overwrites the capacity of [arc] while
    keeping whatever flow is already committed — the warm-start variant
    of {!set_cap}.  The network may transiently violate [flow ≤ cap] on
    [arc]; callers must call {!restore_arc} on every arc they lowered
    before running a solver again.

    @raise Invalid_argument if [arc] is out of range or [cap] is
    negative (or NaN). *)
val set_cap_carry : t -> int -> float -> unit

(** [restore_arc t ~s arc] repairs the feasibility of [arc] after a
    {!set_cap_carry} lowered its capacity below the committed flow: the
    arc flow is reduced to the new capacity and the resulting excess at
    the arc's tail is drained back to the source [s] along
    flow-carrying arcs (flow decomposition).  Conservation holds at
    every other node throughout.  Returns the number of drain paths
    used (0 when the arc was already feasible) and adds it to the
    [Flow_excess_drained] counter.

    @raise Invalid_argument if [arc] is out of range, or no
    flow-carrying path back to [s] exists (impossible for the excess
    produced by lowering a sink arc of a feasible flow). *)
val restore_arc : t -> s:int -> int -> int

(** [restore_arc_head t ~sink arc] is the dual of {!restore_arc} for
    arcs whose {e tail} is the non-conserving source: the arc flow is
    reduced to the new capacity and the resulting deficit at the arc's
    head is repaired by cancelling downstream flow forward to [sink]
    (or around flow-carrying cycles).  Used when a vertex's pattern
    degree drops and its source arc must shrink under committed flow.

    @raise Invalid_argument if [arc] is out of range or the deficit
    cannot be cancelled (impossible for a feasible flow, by flow
    decomposition). *)
val restore_arc_head : t -> sink:int -> int -> int

(** [restore_arc_full t ~s ~sink arc] repairs an {e internal} arc (both
    endpoints conserving) lowered under committed flow: flow that
    circulated around the arc (head-to-tail paths, i.e. broken cycles)
    is cancelled first — it can reach neither terminal — then the
    remaining surplus at the tail is drained back to [s] as in
    {!restore_arc} and the matching deficit at the head is cancelled
    forward to [sink] as in {!restore_arc_head}.  Used when retiring a
    pattern instance whose arcs still carry flow. *)
val restore_arc_full : t -> s:int -> sink:int -> int -> int

(** Remaining residual capacity of an arc. *)
val residual : t -> int -> float

(** [push t arc f] sends [f] units along [arc] (and -[f] along its
    twin). *)
val push : t -> int -> float -> unit

(** [iter_arcs_from t v ~f] visits the arc ids leaving node [v]
    (forward and residual twins alike), in increasing id order. *)
val iter_arcs_from : t -> int -> f:(int -> unit) -> unit

(** The arc ids leaving [v], in increasing id order (a fresh copy). *)
val arcs_from : t -> int -> int array

(** [reset_flow t] zeroes all flow, restoring initial capacities. *)
val reset_flow : t -> unit

(** [flow_value t ~s] is the net outflow at [s] — the total value of
    the flow currently committed to the network, independent of how
    many solver calls accumulated it. *)
val flow_value : t -> s:int -> float

(** Tolerance under which a residual capacity counts as exhausted. *)
val eps : float

(** {1 Raw arena views for the solvers}

    The solvers of this library read the arena directly rather than
    through the bounds-checked accessors above.  The arrays are shared,
    not copied, and may be longer than [arc_count] / [node_count + 1];
    they stay valid until the next [add_node] or [add_edge]. *)

(** [adjacency t] is [(off, adj)]: the arcs leaving [v] are
    [adj.(off.(v)) .. adj.(off.(v+1) - 1)].  Rebuilds the CSR first if
    an [add_node]/[add_edge] invalidated it. *)
val adjacency : t -> int array * int array

(** Arc heads, capacities and flows, indexed by arc id.  Writing to
    [flows] is how a solver pushes flow: it must keep
    [flow.(e lxor 1) = -. flow.(e)]. *)
val heads : t -> int array

val caps : t -> float array
val flows : t -> float array

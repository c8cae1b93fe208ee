(** Exact — Algorithm 1: densest-subgraph binary search over min-cuts
    on the whole graph.  With [~family:Pds] this is PExact
    (Algorithm 8); the dispatch is automatic by pattern kind.

    This is the paper's baseline exact method: loose bounds
    [0, max deg(v, Psi)], network rebuilt on all of G each iteration.
    CoreExact ({!Core_exact}) is the contribution that beats it. *)

type stats = {
  iterations : int;        (** binary-search steps *)
  last_network_nodes : int;
  mu : int;                (** instance count of the input graph *)
  elapsed_s : float;
}

type result = {
  subgraph : Density.subgraph;
  stats : stats;
}

(** [run g psi] returns the exact densest subgraph w.r.t. Psi-density.
    [family] overrides the flow-network construction (defaults to the
    paper's choice for the pattern kind).  [warm] (default [true])
    carries the committed flow across binary-search probes
    ({!Flow_build.retarget}); [~warm:false] restores the
    reset-per-probe behaviour.

    Repeat-solve hooks (the serving layer's prepared-state cache):
    [?instances] supplies the Psi-instances of [g] enumerated earlier
    (must equal [Enumerate.instances g psi]; ignored by the EDS
    family), and [?prepared] a caller-owned {!Param_search.arena} —
    unprepared on the first call, reused (retarget-only, no rebuild)
    on every later call with the same [g], [psi] and [family].
    Results are bit-identical with or without either hook. *)
val run :
  ?pool:Dsd_util.Pool.t ->
  ?warm:bool ->
  ?family:Flow_build.family ->
  ?instances:int array array ->
  ?prepared:Param_search.arena ->
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> result

(** The parametric min-cut search every exact solver runs.

    Algorithms 1, 4 and 8, top-k, the density-friendly hierarchy and
    the incremental session all bisect a density parameter alpha,
    probe a min cut on a network whose alpha-arcs alone change between
    probes, and move one bound.  This module owns the two decisions
    they share: when to build the network versus re-point it
    ({!arena}), and how the bisection walks ({!bisect}).  What a probe
    means — witness tracking, pinning, core shrinks — stays with the
    caller.

    {b The bisection invariant.}  With a decision that raises [l] only
    to the exact density of a witnessed subset (or to the probed alpha,
    when a non-empty source side certifies a denser subset) and lowers
    [u] only when a min cut certifies that no subset beats alpha, [l]
    never exceeds the optimum and [u] never falls to it.  The loop
    stops once [u - l < gap]; with [gap] at most {!Density.stop_gap},
    which is below the minimum spacing of two distinct candidate
    densities, the last raise sits in the breakpoint-free interval
    just under the optimum (or at it).  Its source side is therefore
    the canonical answer whatever the probe history: a warm-bracketed
    incremental search, a fresh one and a rebuilt one agree vertex for
    vertex. *)

(** {1 The prepared arena} *)

(** A lazily prepared flow network.  The first {!probe} runs the
    caller's [prepare] closure (a [flow_networks_built]); every later
    probe re-points the alpha-arcs with {!Flow_build.retarget} (a
    [flow_retargets], plus a [flow_warm_starts] when warm).  An arena
    may outlive one search: a server that keeps one per (graph, Psi)
    pays the build once, and every later search is pure retargets. *)
type arena

(** An unprepared arena. *)
val arena : unit -> arena

(** [invalidate a] drops the prepared network, so the next probe
    rebuilds.  Needed whenever the vertex set the network indexes
    changes (CoreExact's Pruning-3 shrink). *)
val invalidate : arena -> unit

(** Whether the next probe will retarget rather than build. *)
val is_prepared : arena -> bool

(** [probe ?warm a ~prepare alpha] builds the network with
    [prepare alpha] on the first call (or after {!invalidate}),
    otherwise retargets it to [alpha] ([warm] as in
    {!Flow_build.retarget}, default [true]); then solves the min cut
    and returns the data vertices on its source side. *)
val probe :
  ?warm:bool -> arena -> prepare:(float -> Flow_build.prepared) -> float ->
  int array

(** [node_count a] is |V_F| of the prepared network, 0 when
    unprepared. *)
val node_count : arena -> int

(** {1 The bisection} *)

(** A probe's verdict: raise [l] to the given value (a density
    certified to be achievable), or lower [u] to the probed alpha. *)
type step = Raise of float | Lower

(** [bisect ~gap ~l ~u decide] runs [while u - l >= gap ()] over the
    midpoint [alpha = (l + u) / 2], applying [decide alpha], and
    returns the final [(l, u)].  [gap] is re-read before every step,
    so a search whose candidate set shrinks (CoreExact's component)
    may tighten it as it goes. *)
val bisect :
  gap:(unit -> float) -> l:float -> u:float -> (float -> step) -> float * float

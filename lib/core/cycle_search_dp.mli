(** Bicameral-cycle search by dynamic programming over the layered state
    space — the polynomial engine behind Algorithm 3.

    The state space is the product (residual vertex, accumulated cost ∈
    [-B, B]) — exactly the union of the paper's [H_v^+(B)] and [H_v^-(B)]
    copies glued together — and a cycle of the residual graph through root
    [v] with exact cost [b] is a walk from state [(v, 0)] to [(v, b)]
    (Lemma 15). The states are implicit: state [(u, c)] is the index
    [u·W + c + B], [W = 2B + 1], and its out-arcs are read off the active
    residual edges of [u] on the fly, so a search holds O(n·W) labels and
    no state-graph edges. Each call compacts the active residual edges
    once, in O(n + m), and runs FIFO label correcting with Tarjan's
    subtree disassembly (Cherkassky & Goldberg 1999) over the states: the
    parent tree is kept as a preorder list, an improved state's subtree is
    detached, and a relaxation out of the improved state's own subtree
    reports a negative cycle at once. The engine:

    + detects negative-delay cycles of the state space first; these project
      to zero-cost negative-delay residual cycles, i.e. type-0 bicameral
      cycles (and make min-delay walks ill-defined, so they must go first);
    + then, per root, computes minimum-delay walks to every exact cost,
      splits each optimal closed walk into simple residual cycles in walk
      order ({!Krsp_graph.Walk.cycles_of_closed_walk}), and classifies
      every piece with {!Bicameral.classify}.

    Only vertices incident to reversed path edges are tried as roots: a
    bicameral cycle needs a negative cost or delay somewhere, and only
    reversed edges are negative. *)

module G := Krsp_graph.Digraph

type candidate = {
  edges : G.edge list;  (** residual edge ids, a vertex-simple cycle *)
  cost : int;
  delay : int;
  kind : Bicameral.kind;
}

val find :
  Residual.t ->
  ctx:Bicameral.context ->
  bound:int ->
  ?exhaustive:bool ->
  ?pool:Krsp_util.Pool.t ->
  unit ->
  candidate option
(** Best bicameral cycle under {!Bicameral.compare_candidates}, or [None]
    when no bicameral cycle with [|cost| ≤ bound] exists in the searched
    space. By default the root scan stops at the first root that yields any
    bicameral cycle (any one suffices for Algorithm 1's progress argument);
    [~exhaustive:true] scans every root and returns the global best.

    Works on any residual — {!Residual.build} or {!Residual.of_arena} —
    seeing only its active edges. Memory is O(n·(2·bound + 1)) per domain:
    labels, tree links and queue live in per-domain scratch that grows to
    the largest state space the domain has searched and is reused by every
    later run on it.

    [pool], when wider than 1, fans the per-root phase-B runs out across
    domains: the compacted residual edges are shared read-only, each run
    uses its domain's scratch (a run never calls the pool, so runs do not
    interleave on one domain), and the serial scan's early-stop is
    replayed as a prefix rule over the per-root results — so
    the returned candidate is {e bit-identical} to the serial scan's at any
    pool width (see DESIGN.md §10 for the determinism contract). *)

val enumerate :
  ?pool:Krsp_util.Pool.t ->
  Residual.t ->
  ctx:Bicameral.context ->
  bound:int ->
  candidate list
(** All bicameral candidates found by the exhaustive scan (for tests and the
    engine cross-validation experiment). *)

val enumerate_raw :
  Residual.t -> bound:int -> (G.edge list * int * int) list
(** All cycles found by the exhaustive scan, *without* bicameral
    classification, as [(edges, cost, delay)]. Used by the naive-cancellation
    baseline of experiment E1 — the algorithm the paper's Figure 1 shows
    going wrong. *)

val metrics : Krsp_util.Metrics.t
(** The registry holding the search's work counters [search.scans] and
    [search.states]; {!Krsp.metrics} is this registry. *)

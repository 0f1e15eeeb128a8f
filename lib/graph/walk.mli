(** Decomposition of balanced edge multisets into simple cycles and of
    [k]-flow edge sets into [k] paths plus cycles.

    These are the combinatorial workhorses behind Proposition 7/8 of the
    paper: the symmetric difference of two path systems is a set of
    edge-disjoint cycles, and a `⊕`-result must be re-extracted as [k]
    disjoint st-paths. *)

val decompose_cycles : Digraph.t -> Digraph.edge list -> Digraph.edge list list
(** [decompose_cycles g edges] partitions [edges] (each id used at most once)
    into vertex-simple directed cycles. Raises [Invalid_argument] if some
    vertex is unbalanced (in-degree ≠ out-degree within the multiset). *)

val cycles_of_closed_walk : Digraph.t -> Digraph.edge list -> Digraph.edge list list
(** [cycles_of_closed_walk g walk] splits a closed walk, given as its edges
    in walk order, into vertex-simple directed cycles: walking it with the
    current simple path on a stack, every return to a vertex on the stack
    pops the edges above that vertex as one cycle (its edges in walk order,
    starting at the revisited vertex). Cycles come out in the order they
    close, so a vertex-simple walk comes back as one piece, itself. The
    pieces partition the walk's edges (as a multiset: an edge id may
    repeat). O(n + L) for a walk of L edges on [n] vertices, against
    {!decompose_cycles}' hash tables. Raises [Invalid_argument] if
    consecutive edges do not chain or the walk does not end where it
    starts. *)

val decompose_st :
  Digraph.t ->
  src:Digraph.vertex ->
  dst:Digraph.vertex ->
  k:int ->
  Digraph.edge list ->
  Path.t list * Digraph.edge list list
(** [decompose_st g ~src ~dst ~k edges] splits an edge set in which [src] has
    out-degree surplus [k], [dst] in-degree surplus [k] and every other
    vertex is balanced, into exactly [k] simple [src→dst] paths and a
    (possibly empty) list of leftover simple cycles. Raises
    [Invalid_argument] when the degree condition fails. *)

"""The instance generators in their first, loop-by-loop form, kept as a
test-only reference for `lllround.model`.

Each element's open sets, each node's candidate heads and each edge's
vertices are Python lists ranked with `sorted`; the triplets come out of
`zip(*sorted(...))`.  The numpy generators must draw the same random numbers
and return byte-identical instances.
"""

import numpy as np

from lllround import CipInstance, GenerationError, MipInstance


def reference_set_cover(n_elems: int, n_sets: int, max_set_size: int, demand: int, seed: int) -> CipInstance:
    """Unit-cost covering instance over random sets.

    Every element is placed in at least demand+1 sets (spread over the least
    loaded sets first), so the relaxation is feasible by construction.
    """
    if n_elems < 1 or n_sets < 1 or max_set_size < 1 or demand < 1:
        raise GenerationError("all parameters must be positive")
    if n_sets < demand + 1:
        raise GenerationError(f"need at least {demand + 1} sets for demand {demand}")
    if n_sets * max_set_size < n_elems * (demand + 1):
        raise GenerationError(
            "capacity n_sets*max_set_size cannot cover every element demand+1 times"
        )
    rng = np.random.default_rng(seed)
    members: list[set[int]] = [set() for _ in range(n_sets)]
    loads = np.zeros(n_sets, dtype=int)
    for elem in range(n_elems):
        open_sets = [s for s in range(n_sets) if loads[s] < max_set_size]
        jitter = rng.random(len(open_sets))
        ranked = sorted(range(len(open_sets)), key=lambda i: (loads[open_sets[i]], jitter[i]))
        if len(ranked) < demand + 1:
            raise GenerationError("ran out of set capacity while spreading coverage")
        for i in ranked[: demand + 1]:
            members[open_sets[i]].add(elem)
            loads[open_sets[i]] += 1
    # Sprinkle extra memberships into the remaining capacity for texture.
    for s in range(n_sets):
        spare = max_set_size - loads[s]
        if spare <= 0:
            continue
        extras = rng.integers(0, spare + 1)
        pool = [e for e in range(n_elems) if e not in members[s]]
        if extras and pool:
            chosen = rng.choice(len(pool), size=min(extras, len(pool)), replace=False)
            members[s].update(pool[i] for i in chosen)
    rows, cols = zip(*sorted((e, s) for s, elems in enumerate(members) for e in elems))
    return CipInstance.from_triplets((n_elems, n_sets), rows, cols, np.ones(len(rows)),
                                     np.full(n_elems, float(demand)), [np.ones(n_sets)])


def reference_facility_location(n_nodes: int, max_in_degree: int, demand: int, seed: int) -> CipInstance:
    """Covering instance on a random digraph: row v demands `demand` open
    facilities among v's out-neighborhood (self-loops allowed), costs random.

    In-degrees stay at most max_in_degree, so column sparsity is at most
    max_in_degree + 1 counting the self-loop.
    """
    if n_nodes < 2 or max_in_degree < 1 or demand < 1:
        raise GenerationError("need n_nodes >= 2, max_in_degree >= 1, demand >= 1")
    if max_in_degree < demand:
        raise GenerationError("max_in_degree must be at least the demand")
    if n_nodes <= demand:
        raise GenerationError("need more nodes than the demand")
    rng = np.random.default_rng(seed)
    in_deg = np.zeros(n_nodes, dtype=int)
    out: list[set[int]] = [set() for _ in range(n_nodes)]
    for v in rng.permutation(n_nodes):
        v = int(v)
        want = int(rng.integers(demand, max_in_degree + 1))
        candidates = [u for u in range(n_nodes) if u != v and in_deg[u] < max_in_degree]
        jitter = rng.random(len(candidates))
        ranked = sorted(range(len(candidates)), key=lambda i: (in_deg[candidates[i]], jitter[i]))
        for i in ranked[:want]:
            out[v].add(candidates[i])
            in_deg[candidates[i]] += 1
        if len(out[v]) < demand:
            out[v].add(v)  # self-loop tops up the row without charging in-degree
        if len(out[v]) < demand:
            raise GenerationError("could not reach the demanded out-degree")
    rows, cols = zip(*sorted((v, u) for v in range(n_nodes) for u in out[v]))
    costs = rng.uniform(0.3, 1.0, n_nodes)
    return CipInstance.from_triplets((n_nodes, n_nodes), rows, cols, np.ones(len(rows)),
                                     np.full(n_nodes, float(demand)), [costs])


def reference_hypergraph_partition(
    n_verts: int, n_edges: int, degree_cap: int, n_parts: int, seed: int
) -> MipInstance:
    """Minimax instance: assign each vertex to one of n_parts parts, loads are
    (edge, part) incidence counts.  Vertex degrees stay at most degree_cap."""
    if n_verts < 2 or n_edges < 1 or degree_cap < 1 or n_parts < 2:
        raise GenerationError("need n_verts >= 2, n_edges >= 1, degree_cap >= 1, n_parts >= 2")
    if n_verts * degree_cap < 2 * n_edges:
        raise GenerationError("degree capacity too small for the requested edges")
    rng = np.random.default_rng(seed)
    capacity = n_verts * degree_cap
    sizes = rng.integers(2, min(4, n_verts) + 1, size=n_edges)
    for e in range(n_edges):  # shrink until the capacity precheck is honoured
        if sizes.sum() <= capacity:
            break
        sizes[e] = 2
    deg = np.zeros(n_verts, dtype=int)
    edges: list[np.ndarray] = []
    for size in sizes:
        # filling the least-loaded vertices first keeps the degree spread at 1,
        # which makes running out of capacity impossible while sum(sizes) fits
        order = rng.permutation(n_verts)
        order = order[np.argsort(deg[order], kind="stable")]
        chosen = np.array([v for v in order if deg[v] < degree_cap][: int(size)])
        if len(chosen) < size:
            raise GenerationError("ran out of degree capacity while placing edges")
        deg[chosen] += 1
        edges.append(np.sort(chosen))
    # row (edge j, part) holds slot `part` of each of edge j's vertices, so
    # this order is already sorted by (row, col)
    rows, cols = zip(*((j * n_parts + part, v * n_parts + part)
                       for j, edge in enumerate(edges) for part in range(n_parts) for v in edge))
    return MipInstance.from_triplets((n_edges * n_parts, n_verts * n_parts), rows, cols,
                                     np.ones(len(rows)), [n_parts] * n_verts)

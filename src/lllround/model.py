"""Instance data model: covering and minimax programs, the feasibility rule
for a fractional point, column sparsity, seeded generators, and the JSON
wire format.

A covering instance is min c.x subject to A x >= b over nonnegative integer
vectors x, with A entries in [0, 1], demands b >= 1, and every cost vector
max-normalized to 1.  A minimax instance partitions its columns into groups,
picks exactly one column per group, and minimizes the maximum row load.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InstanceError",
    "ParseError",
    "GenerationError",
    "CipInstance",
    "MipInstance",
    "FractionalSolution",
    "column_sparsity",
    "gen_set_cover",
    "gen_facility_location",
    "gen_hypergraph_partition",
    "parse_instance",
    "serialize_instance",
]

DEMAND_INTEGRALITY_TOL = 1e-9
INDEX_MAX = int(np.iinfo(np.int64).max)  # of every index and dimension
# A supplied fractional point may miss a demand or a group sum by this much.
POINT_TOL = 1e-6


class InstanceError(ValueError):
    """An instance violates a structural invariant."""


class ParseError(ValueError):
    """A serialized instance document is malformed."""


class GenerationError(ValueError):
    """Generator parameters cannot yield a feasible instance."""


class InfeasibleError(ValueError):
    """A fractional point misses a demand or a group sum beyond POINT_TOL."""


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _csr(keys: np.ndarray, values: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The values grouped by key in [0, size), in their order within a key:
    key i's values are grouped[ptr[i]:ptr[i + 1]]."""
    ptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=size), out=ptr[1:])
    return ptr, values[np.argsort(keys, kind="stable")]


def _checked_point(x, n: int, what: str) -> np.ndarray:
    """x as a float vector of n weights, one per `what`, each finite and
    nonnegative; the ValueError names the first that is not."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"expected {n} values, got shape {x.shape}")
    bad = np.flatnonzero(~(np.isfinite(x) & (x >= 0.0)))
    if bad.size:
        raise ValueError(f"{what} weights must be nonnegative and finite, "
                         f"got {x[bad[0]]} at {what} {bad[0]}")
    return x


def _matrix_fields(shape, rows, cols, vals) -> dict:
    """Check the (row, col)-sorted nonzero triplets of an m x n matrix with
    entries in (0, 1], and derive the row pointer.  Indices are int64, so
    m, n and every triplet index must fit in it."""
    m, n = (int(d) for d in shape)
    if m < 1 or n < 1:
        raise InstanceError("instance needs at least one row and one column")
    if max(m, n) > INDEX_MAX:
        raise InstanceError(f"the {m} x {n} matrix passes the int64 index range")
    try:
        rows, cols = (_frozen(np.asarray(v, dtype=np.int64).reshape(-1)) for v in (rows, cols))
    except OverflowError:  # an index past int64, so outside the matrix
        pos, (i, j) = next((pos, ij) for pos, ij in enumerate(zip(rows, cols))
                           if not (0 <= ij[0] < m and 0 <= ij[1] < n))
        raise InstanceError(f"triplet {pos} at ({i}, {j}) lies outside the {m} x {n} "
                            "matrix") from None
    vals = _frozen(np.asarray(vals, dtype=float).reshape(-1))
    if not rows.shape == cols.shape == vals.shape:
        raise InstanceError("need one row, one column and one value per triplet")
    bad = np.flatnonzero((rows < 0) | (rows >= m) | (cols < 0) | (cols >= n))
    if bad.size:
        raise InstanceError(f"triplet {bad[0]} at ({rows[bad[0]]}, {cols[bad[0]]}) lies outside "
                            f"the {m} x {n} matrix")
    bad = np.flatnonzero(~((vals > 0.0) & (vals <= 1.0)))
    if bad.size:
        raise InstanceError(f"triplet {bad[0]} has value {vals[bad[0]]}: constraint entries "
                            "must lie in [0, 1], and zero entries are omitted")
    # by (row, col) pairs, not a key row * n + col, which passes int64 with m * n
    row_step, col_step = np.diff(rows), np.diff(cols)
    step = np.flatnonzero((row_step < 0) | ((row_step == 0) & (col_step <= 0)))
    if step.size:
        pos = step[0] + 1
        if row_step[pos - 1] == col_step[pos - 1] == 0:
            raise InstanceError(f"triplet {pos} duplicates ({rows[pos]}, {cols[pos]})")
        raise InstanceError("triplets must be sorted by (row, col)")
    row_ptr = _frozen(np.searchsorted(rows, np.arange(m + 1)))
    return dict(shape=(m, n), rows=rows, cols=cols, vals=vals, row_ptr=row_ptr)


@dataclass(frozen=True, eq=False)
class _SparseMatrix:
    """The constraint matrix, stored once as its (row, col)-sorted nonzero
    triplets.  A column's nonzeros are found by sorting the triplets by
    column (`_csr`), where they are needed."""

    shape: tuple[int, int]
    rows: np.ndarray  # row of each nonzero, nondecreasing
    cols: np.ndarray  # column of each nonzero, increasing within a row
    vals: np.ndarray  # each in (0, 1]
    row_ptr: np.ndarray  # row i's nonzeros are [row_ptr[i], row_ptr[i + 1])

    @property
    def m(self) -> int:
        return self.shape[0]

    @property
    def a_matrix(self) -> np.ndarray:
        """A dense read-only copy, built on every call (for the simplex
        tableau and the exhaustive oracles; rounding reads the triplets)."""
        dense = np.zeros(self.shape)
        dense[self.rows, self.cols] = self.vals
        return _frozen(dense)

    def loads(self, x) -> np.ndarray:
        """Row loads A x, summed over the nonzeros."""
        x = np.asarray(x, dtype=float)
        return np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=self.m)

    @classmethod
    def create(cls, a_matrix, *args):
        """From a dense matrix with entries in [0, 1], through its nonzeros;
        `args` are the rest of `from_triplets`' arguments: the demands and
        cost vectors of a cover, or the group sizes of a minimax program."""
        a_matrix = np.asarray(a_matrix, dtype=float)
        if a_matrix.ndim != 2:
            raise InstanceError("constraint matrix must be two-dimensional")
        rows, cols = np.nonzero(a_matrix)
        return cls.from_triplets(a_matrix.shape, rows, cols, a_matrix[rows, cols], *args)


@dataclass(frozen=True, eq=False)
class CipInstance(_SparseMatrix):
    """A covering program.  Build through :meth:`create` or
    :meth:`from_triplets`, which validate and normalize; the raw constructor
    trusts its arguments."""

    demands: np.ndarray  # (m,), each >= 1
    costs: tuple[np.ndarray, ...]  # each max-normalized to 1

    @property
    def n(self) -> int:
        return self.shape[1]

    @property
    def n_criteria(self) -> int:
        return len(self.costs)

    @classmethod
    def from_triplets(cls, shape, rows, cols, vals, demands, costs) -> "CipInstance":
        """From the (row, col)-sorted nonzero triplets of an (m, n) matrix."""
        matrix = _matrix_fields(shape, rows, cols, vals)
        m, n = matrix["shape"]
        demands = np.asarray(demands, dtype=float)
        if demands.shape != (m,):
            raise InstanceError(f"expected {m} demands, got shape {demands.shape}")
        if not np.all(np.isfinite(demands) & (demands >= 1.0)):
            raise InstanceError("every demand must be finite and at least 1")
        if np.any(np.diff(matrix["row_ptr"]) == 0):
            raise InstanceError("every row must have a positive entry")
        if np.all(matrix["vals"] == 1.0):
            rounded = np.rint(demands)
            if np.any(np.abs(demands - rounded) > DEMAND_INTEGRALITY_TOL):
                raise InstanceError(
                    "demands must be integral when the constraint matrix is 0/1"
                )
            demands = rounded
        normalized: list[np.ndarray] = []
        for idx, cost in enumerate(costs):
            cost = np.asarray(cost, dtype=float)
            if cost.shape != (n,):
                raise InstanceError(f"cost vector {idx} must have length {n}")
            if not np.all(np.isfinite(cost) & (cost >= 0.0)):
                raise InstanceError(f"cost vector {idx} has negative or non-finite entries")
            top = float(cost.max())
            if top <= 0.0:
                raise InstanceError(f"cost vector {idx} must have a positive entry")
            normalized.append(_frozen(cost / top))
        if not normalized:
            raise InstanceError("at least one cost vector is required")
        return cls(**matrix, demands=_frozen(demands), costs=tuple(normalized))


@dataclass(frozen=True, eq=False)
class MipInstance(_SparseMatrix):
    """A minimax program: one column per group is selected."""

    group_sizes: tuple[int, ...]
    offsets: tuple[int, ...]  # column offset of each group's first slot

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def n_groups(self) -> int:
        return len(self.group_sizes)

    def group_slice(self, group: int) -> slice:
        start = self.offsets[group]
        return slice(start, start + self.group_sizes[group])

    @classmethod
    def from_triplets(cls, shape, rows, cols, vals, group_sizes) -> "MipInstance":
        """From the (row, col)-sorted nonzero triplets of an (m, N) matrix."""
        sizes = tuple(int(s) for s in group_sizes)
        if not sizes or min(sizes) < 1:
            raise InstanceError("need at least one group, and every group needs at least one slot")
        ends = tuple(itertools.accumulate(sizes))
        past = next((g for g, end in enumerate(ends) if end > INDEX_MAX), None)
        if past is not None:
            raise InstanceError(f"group sizes pass the int64 index range at group {past}")
        matrix = _matrix_fields(shape, rows, cols, vals)
        if ends[-1] != matrix["shape"][1]:
            raise InstanceError(
                f"group sizes sum to {ends[-1]} but the matrix has "
                f"{matrix['shape'][1]} columns"
            )
        return cls(**matrix, group_sizes=sizes, offsets=(0,) + ends[:-1])


@dataclass(frozen=True)
class FractionalSolution:
    """A feasible fractional point plus its objective value(s)."""

    x: np.ndarray
    objective_values: tuple[float, ...]


def column_sparsity(instance) -> int:
    """The column sparsity a: the most rows one column meets."""
    return int(np.bincount(instance.cols).max(initial=0))


def _check_cover(instance: CipInstance, x: np.ndarray) -> None:
    """InfeasibleError unless A x meets every demand within POINT_TOL."""
    shortfall = instance.demands - instance.loads(x)
    worst = int(np.argmax(shortfall))
    if shortfall[worst] > POINT_TOL:
        raise InfeasibleError(f"row {worst} short by {shortfall[worst]:.3e}")


def _group_totals(instance: MipInstance, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The point as one zero-padded row per group, and each group's total;
    InfeasibleError unless every total is within POINT_TOL of 1.  A total is
    summed over its group's weights alone, as a row of the group's own
    width: numpy's pairwise sum blocks a padded row or a `reduceat` segment
    of 8 or more otherwise, and the total must round as the group's
    one-dimensional sum does."""
    sizes = np.array(instance.group_sizes)
    padded = np.zeros((sizes.size, int(sizes.max())))
    padded[np.arange(padded.shape[1]) < sizes[:, None]] = x
    totals = np.empty(sizes.size)
    with np.errstate(over="ignore"):  # a total past the float range is not 1 either
        for size in set(instance.group_sizes):
            same = sizes == size
            totals[same] = padded[same, :size].sum(axis=1)
    off = np.flatnonzero(np.abs(totals - 1.0) > POINT_TOL)
    if off.size:
        raise InfeasibleError(f"group {off[0]} weights sum to {totals[off[0]]}, not 1")
    return padded, totals


# ---------------------------------------------------------------------------
# Generators.  All randomness flows through one numpy Generator per call, so
# a (parameters, seed) pair pins the instance bit-for-bit.
# ---------------------------------------------------------------------------


def _sorted_triplets(rows, cols) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated (row, col) pairs of distinct nonzeros, sorted by
    (row, col)."""
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((cols, rows))
    return rows[order], cols[order]


def _least_loaded(loads, candidates, jitter, count) -> np.ndarray:
    """The first `count` candidates by (load, jitter); a stable sort, so
    ties break by position as `sorted` would."""
    keys = loads[candidates]
    # load + jitter, rounded, never decreases along the (load, jitter) order
    # (jitter < 1), so the candidates whose sum is at most the count-th
    # smallest sum include the first `count`; only those are sorted exactly
    merged = keys + jitter
    if count < len(merged):
        near = np.flatnonzero(merged <= np.partition(merged, count - 1)[count - 1])
        candidates, keys, jitter = candidates[near], keys[near], jitter[near]
    return candidates[np.lexsort((jitter, keys))[:count]]


def gen_set_cover(n_elems: int, n_sets: int, max_set_size: int, demand: int, seed: int) -> CipInstance:
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
    loads = np.zeros(n_sets, dtype=int)
    spread = np.empty((n_elems, demand + 1), dtype=np.int64)  # each element's sets
    for elem in range(n_elems):
        open_sets = np.flatnonzero(loads < max_set_size)
        jitter = rng.random(len(open_sets))
        if len(open_sets) < demand + 1:
            raise GenerationError("ran out of set capacity while spreading coverage")
        spread[elem] = _least_loaded(loads, open_sets, jitter, demand + 1)
        loads[spread[elem]] += 1
    rows = [np.repeat(np.arange(n_elems), demand + 1)]
    cols = [spread.ravel()]
    # each set's members, ascending: a stable sort by set keeps element order
    members = np.split(rows[0][np.argsort(cols[0], kind="stable")], np.cumsum(loads)[:-1])
    # Sprinkle extra memberships into the remaining capacity for texture.
    for s in range(n_sets):
        spare = max_set_size - loads[s]
        if spare <= 0:
            continue
        extras = rng.integers(0, spare + 1)
        pool_len = n_elems - len(members[s])  # the pool is the ascending complement
        if extras and pool_len:
            chosen = rng.choice(pool_len, size=min(extras, pool_len), replace=False)
            # pool entry i is element i plus the members at or below it
            below = members[s] - np.arange(len(members[s]))
            rows.append(chosen + np.searchsorted(below, chosen, side="right"))
            cols.append(np.full(len(chosen), s))
    rows, cols = _sorted_triplets(rows, cols)
    return CipInstance.from_triplets((n_elems, n_sets), rows, cols, np.ones(len(rows)),
                                     np.full(n_elems, float(demand)), [np.ones(n_sets)])


def gen_facility_location(n_nodes: int, max_in_degree: int, demand: int, seed: int) -> CipInstance:
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
    rows, cols = [], []
    for v in rng.permutation(n_nodes):
        want = int(rng.integers(demand, max_in_degree + 1))
        open_heads = in_deg < max_in_degree
        open_heads[v] = False
        candidates = np.flatnonzero(open_heads)
        jitter = rng.random(len(candidates))
        heads = _least_loaded(in_deg, candidates, jitter, want)
        in_deg[heads] += 1
        if len(heads) < demand:
            heads = np.append(heads, v)  # self-loop tops up the row without charging in-degree
        if len(heads) < demand:
            raise GenerationError("could not reach the demanded out-degree")
        rows.append(np.full(len(heads), v))
        cols.append(heads)
    rows, cols = _sorted_triplets(rows, cols)
    costs = rng.uniform(0.3, 1.0, n_nodes)
    return CipInstance.from_triplets((n_nodes, n_nodes), rows, cols, np.ones(len(rows)),
                                     np.full(n_nodes, float(demand)), [costs])


def gen_hypergraph_partition(
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
    # shrink the fewest leading edges to size 2 that honours the capacity
    # precheck; shrinking all of them always does
    totals = sizes.sum() - np.concatenate(([0], np.cumsum(sizes - 2)))
    sizes[: np.argmax(totals <= capacity)] = 2
    deg = np.zeros(n_verts, dtype=int)
    edges: list[np.ndarray] = []
    for size in sizes:
        # filling the least-loaded vertices first keeps the degree spread at 1,
        # which makes running out of capacity impossible while sum(sizes) fits
        order = rng.permutation(n_verts)
        order = order[np.argsort(deg[order], kind="stable")]
        chosen = order[deg[order] < degree_cap][:size]
        if len(chosen) < size:
            raise GenerationError("ran out of degree capacity while placing edges")
        deg[chosen] += 1
        edges.append(np.sort(chosen))
    # row (edge j, part) holds slot `part` of each of edge j's vertices
    parts = np.arange(n_parts)[:, None]
    rows, cols = _sorted_triplets([(np.repeat(np.arange(n_edges), sizes) * n_parts + parts).ravel()],
                                  [(np.concatenate(edges) * n_parts + parts).ravel()])
    return MipInstance.from_triplets((n_edges * n_parts, n_verts * n_parts), rows, cols,
                                     np.ones(len(rows)), [n_parts] * n_verts)


# ---------------------------------------------------------------------------
# Wire format: {"kind", "m", "n" | "groups", "A": [[row, col, value], ...],
# "b", "costs"}, triplets sorted by (row, col), zeros and duplicates rejected.
# ---------------------------------------------------------------------------


def _require(doc: dict, key: str):
    if key not in doc:
        raise ParseError(f'missing field "{key}"')
    return doc[key]


def _floats(values, what: str) -> np.ndarray:
    """Finite JSON numbers as floats; booleans, strings, NaN and infinities
    (and integers too large for a float) are refused."""
    if set(map(type, values)) <= {float}:  # as serialized: one array pass
        array = np.array(values, dtype=float)
        if np.all(np.isfinite(array)):
            return array
    else:
        top = float(np.finfo(float).max)  # a Python float compares exactly with any int
        if all(type(v) in (int, float) and abs(v) <= top for v in values):
            return np.array(values, dtype=float)
    raise ParseError(f"{what} must hold finite numbers only")


def _is_triplet(entry) -> bool:
    return type(entry) is list and len(entry) == 3 and type(entry[0]) is int and type(entry[1]) is int


def _read_triplets(doc: dict):
    """(rows, cols, vals) of field "A"; their ranges and order are checked
    by the instance constructor."""
    triplets = _require(doc, "A")
    if not isinstance(triplets, list):
        raise ParseError('field "A" must be a list of [row, col, value] triplets')
    # all entries at once; entry by entry only to name the first bad one
    if set(map(type, triplets)) <= {list} and set(map(len, triplets)) <= {3}:
        rows, cols, vals = zip(*triplets) if triplets else ((), (), ())
        if set(map(type, rows)) | set(map(type, cols)) <= {int}:
            return rows, cols, _floats(vals, 'the values of field "A"')
    pos = next(pos for pos, entry in enumerate(triplets) if not _is_triplet(entry))
    raise ParseError(f'field "A" entry {pos} is not a [row, col, value] triplet '
                     'with integer indices')


def parse_instance(text: str):
    """Parse a serialized instance; returns a CipInstance or MipInstance."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    kind = _require(doc, "kind")
    m = _require(doc, "m")
    if type(m) is not int or m < 1:
        raise ParseError('field "m" must be a positive integer')
    try:
        if kind == "cip":
            n = _require(doc, "n")
            if type(n) is not int or n < 1:
                raise ParseError('field "n" must be a positive integer')
            demands = _require(doc, "b")
            costs = _require(doc, "costs")
            if not isinstance(demands, list) or len(demands) != m:
                raise ParseError(f'field "b" must be a list of {m} demands')
            if not (isinstance(costs, list) and costs and all(isinstance(c, list) for c in costs)):
                raise ParseError('field "costs" must be a non-empty list of cost vectors')
            return CipInstance.from_triplets(
                (m, n), *_read_triplets(doc), _floats(demands, 'field "b"'),
                [_floats(cost, f'cost vector {i}') for i, cost in enumerate(costs)],
            )
        if kind == "mip":
            groups = _require(doc, "groups")
            if not (isinstance(groups, list) and groups and all(type(g) is int for g in groups)):
                raise ParseError('field "groups" must be a non-empty list of group sizes')
            return MipInstance.from_triplets((m, sum(groups)), *_read_triplets(doc), groups)
    except InstanceError as exc:
        raise ParseError(str(exc)) from None
    raise ParseError(f'field "kind" must be "cip" or "mip", got {kind!r}')


def serialize_instance(instance) -> str:
    """Deterministic JSON for an instance; triplets sorted by (row, col)."""
    triplets = list(zip(instance.rows.tolist(), instance.cols.tolist(), instance.vals.tolist()))
    if isinstance(instance, CipInstance):
        doc = {
            "kind": "cip",
            "m": instance.m,
            "n": instance.n,
            "A": triplets,
            "b": [float(b) for b in instance.demands],
            "costs": [[float(c) for c in cost] for cost in instance.costs],
        }
    else:
        doc = {
            "kind": "mip",
            "m": instance.m,
            "groups": list(instance.group_sizes),
            "A": triplets,
        }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

"""Initial placement strategies.

:func:`quadratic_placement` memoizes its search process-wide, keyed by
the device's and the problem's structure and the search's budget, seed
and starting mapping: several methods compiled on one instance start
from the same placement, and the search is a pure function of those
inputs.  Counters are exposed through :func:`repro._telemetry.cache_info`
under ``placement``.
"""

from __future__ import annotations

import hashlib
import random
import threading
from array import array
from collections import deque
from itertools import islice
from typing import Collection, Dict, List, Optional, Tuple

import numpy as np

from .._telemetry import CacheCounter, register_cache
from ..arch.coupling import CouplingGraph
from ..exceptions import SpecificationError
from ..ir.mapping import Mapping
from ..problems.graphs import ProblemGraph


def _check_capacity(coupling: CouplingGraph, problem: ProblemGraph) -> None:
    """Raise unless every problem vertex can get its own physical qubit."""
    if problem.n_vertices > coupling.n_qubits:
        raise SpecificationError(
            f"problem has {problem.n_vertices} vertices but "
            f"{coupling.name} has only {coupling.n_qubits} qubits")


def check_initial_mapping(coupling: CouplingGraph, problem: ProblemGraph,
                          mapping: Mapping) -> None:
    """Raise unless ``mapping`` places exactly ``problem`` on ``coupling``."""
    if not isinstance(mapping, Mapping):
        raise SpecificationError(
            f"initial mapping must be a Mapping, got "
            f"{type(mapping).__name__}")
    if mapping.n_logical != problem.n_vertices:
        raise SpecificationError(
            f"initial mapping places {mapping.n_logical} logical qubits "
            f"but the problem has {problem.n_vertices} vertices")
    if mapping.n_physical != coupling.n_qubits:
        raise SpecificationError(
            f"initial mapping covers {mapping.n_physical} physical qubits "
            f"but {coupling.name} has {coupling.n_qubits}")


def trivial_placement(coupling: CouplingGraph,
                      problem: ProblemGraph) -> Mapping:
    """Logical ``i`` on physical ``i``.

    For clique inputs every placement behaves identically (Section 4,
    Discussion), so this is the default.
    """
    _check_capacity(coupling, problem)
    return Mapping.trivial(problem.n_vertices, coupling.n_qubits)


def degree_placement(coupling: CouplingGraph,
                     problem: ProblemGraph,
                     center: Optional[int] = None) -> Mapping:
    """Place high-degree problem vertices on central, well-connected qubits.

    A BFS from the architecture's most central qubit enumerates physical
    sites from the core outwards; problem vertices are assigned in
    decreasing problem-degree order.  This mirrors the placement heuristics
    of the QAIM baseline and helps the greedy router on sparse inputs.
    """
    _check_capacity(coupling, problem)
    if center is None:
        ecc = coupling.distance_matrix.max(axis=1)
        center = int(ecc.argmin())
    order = []
    seen = {center}
    queue = deque([center])
    while queue:
        q = queue.popleft()
        order.append(q)
        for nbr in coupling.neighbors(q):
            if nbr not in seen:
                seen.add(nbr)
                queue.append(nbr)
    # Disconnected leftovers (shouldn't happen on our architectures).
    order.extend(q for q in range(coupling.n_qubits) if q not in seen)

    degrees = problem.degrees()
    by_degree = sorted(range(problem.n_vertices),
                       key=lambda v: (-degrees[v], v))
    log_to_phys = [0] * problem.n_vertices
    for physical, logical in zip(order, by_degree):
        log_to_phys[logical] = physical
    return Mapping(log_to_phys, coupling.n_qubits)


def noise_aware_placement(coupling: CouplingGraph,
                          problem: ProblemGraph,
                          noise) -> Mapping:
    """Grow a connected region of high-quality qubits (Factor III).

    Each physical qubit is scored by the mean success rate of its incident
    couplings times its readout fidelity.  Starting from the best qubit,
    the region grows by always absorbing the best-scoring frontier qubit,
    yielding a compact, well-calibrated patch; high-degree problem
    vertices are assigned first (as in :func:`degree_placement`).
    """
    _check_capacity(coupling, problem)

    def quality(q: int) -> float:
        edges = [1.0 - noise.edge_error(q, nbr)
                 for nbr in coupling.neighbors(q)]
        edge_quality = sum(edges) / len(edges) if edges else 0.0
        return edge_quality * (1.0 - noise.readout_error[q])

    scores = {q: quality(q) for q in range(coupling.n_qubits)}
    start = max(scores, key=lambda q: (scores[q], -q))
    chosen = [start]
    chosen_set = {start}
    frontier = set(coupling.neighbors(start))
    while len(chosen) < problem.n_vertices:
        if not frontier:  # disconnected leftovers
            remaining = [q for q in range(coupling.n_qubits)
                         if q not in chosen_set]
            frontier = {max(remaining, key=lambda q: scores[q])}
        best = max(frontier, key=lambda q: (scores[q], -q))
        frontier.discard(best)
        chosen.append(best)
        chosen_set.add(best)
        frontier.update(n for n in coupling.neighbors(best)
                        if n not in chosen_set)

    degrees = problem.degrees()
    by_degree = sorted(range(problem.n_vertices),
                       key=lambda v: (-degrees[v], v))
    log_to_phys = [0] * problem.n_vertices
    for physical, logical in zip(chosen, by_degree):
        log_to_phys[logical] = physical
    return Mapping(log_to_phys, coupling.n_qubits)


#: A search in which some vertex has more terms than this scores moves
#: from site masks; when every list is this short, summing it directly
#: is cheaper than keeping masks up to date.
_MASK_TERMS = 8


def _move_masks(distances: np.ndarray, couplings: List[Tuple[int, ...]],
                ) -> List[Tuple[Tuple[int, int, int, int], ...]]:
    """Per-site move records ``(pb, far, level, flip)``, in coupling order.

    For a move from ``pa`` to the coupled site ``pb``, each site ``q``
    gets ``d(pb, q) - d(pa, q)`` in {-1, 0, +1}: ``far`` holds the bits of
    the sites at +1 and ``level`` those at 0 (an odd cycle or another
    component), so a set ``S`` of occupied sites sums to
    ``2 * |S & far| + |S & level| - |S|``.  ``flip`` is the bit pair a
    move toggles.  All are built in one vectorised pass.
    """
    sources = [pa for pa, sites in enumerate(couplings) for _ in sites]
    targets = [pb for sites in couplings for pb in sites]
    step = distances[targets] - distances[sources]
    width = (distances.shape[0] + 7) // 8

    def as_ints(bits: np.ndarray) -> List[int]:
        packed = np.packbits(bits, axis=1, bitorder="little").tobytes()
        return [int.from_bytes(packed[r:r + width], "little")
                for r in range(0, len(packed), width)]

    fars = as_ints(step > 0)
    levels = as_ints(step == 0)
    records = iter(zip(targets, fars, levels))
    return [tuple((pb, far, level, 1 << pa | 1 << pb)
                  for pb, far, level in islice(records, len(sites)))
            for pa, sites in enumerate(couplings)]


def mapping_cost(coupling: CouplingGraph, mapping: Mapping,
                 problem: ProblemGraph) -> int:
    """Sum of physical distances over all problem edges: the objective
    :func:`quadratic_placement` minimises (2QAN's)."""
    dist = coupling.distance_matrix
    return int(sum(dist[mapping.physical(u), mapping.physical(v)]
                   for u, v in problem.edges))


#: Searched placements as plain ``log_to_phys`` tuples; every call gets
#: a fresh :class:`Mapping`, since callers may mutate theirs.
_PLACEMENT_CACHE: Dict[tuple, Tuple[int, ...]] = {}
_PLACEMENT_CACHE_CAP = 64
#: Guards eviction, insertion and clearing: jobs on the ``thread``
#: executor share the memo, and two evictions of the same oldest key, or
#: an insert between ``iter`` and ``next``, would raise.
_PLACEMENT_LOCK = threading.Lock()


def _clear_placements() -> None:
    with _PLACEMENT_LOCK:
        _PLACEMENT_CACHE.clear()


_PLACEMENT_COUNTER = register_cache(
    "placement", CacheCounter("placement"),
    lambda: len(_PLACEMENT_CACHE), _clear_placements)


def _edge_digest(edges: Collection[Tuple[int, int]]) -> bytes:
    """Fixed-size digest of an edge set (holds no edge tuples).

    Each edge ``(u, v)`` packs into the int64 ``u * 2**32 + v``; the
    sorted codes are hashed, so equal sets give equal digests.  They
    are sorted in Python: a first ``numpy.sort`` pages about 0.5 MB of
    sort code into a process that otherwise never runs it.
    """
    codes = array("q", sorted(u << 32 | v for u, v in edges))
    return hashlib.blake2b(codes.tobytes(), digest_size=16).digest()


def quadratic_placement(
    coupling: CouplingGraph,
    problem: ProblemGraph,
    iterations: Optional[int] = None,
    seed: int = 0,
    initial: Optional[Mapping] = None,
) -> Mapping:
    """Distance-minimising placement by pairwise-exchange local search.

    Starts from :func:`degree_placement` (or ``initial``) and hill-climbs
    on the summed physical distance over problem edges (the
    quadratic-assignment objective 2QAN introduced).  Each of the
    ``iterations`` proposals swaps a random logical qubit ``a`` with the
    occupant ``b`` of a random coupled neighbour.  Only the edges at
    ``a`` and ``b`` change length, so the move is scored by its exact
    integer cost change and kept iff that change is not positive.  A
    vertex adjacent to more than half of the others is scored through
    its non-neighbours instead, so an endpoint sums min(deg, n - 1 -
    deg) terms.  When some vertex has more than a few terms, every
    endpoint is instead scored with a popcount: a move changes each
    site's distance by -1, 0 or +1, so the sum is read from a bitmask
    of the sites the endpoint's neighbours occupy, and an accepted move
    toggles two bits in the masks that hold its movers.  The default
    budget is capped so the search stays effectively linear at large
    scale.

    Searches are memoized per process (see the module docstring), so a
    repeated call returns the same mapping without searching again.
    """
    _check_capacity(coupling, problem)
    if initial is not None:
        check_initial_mapping(coupling, problem, initial)
    if iterations is not None and (isinstance(iterations, bool)
                                   or not isinstance(iterations, int)
                                   or iterations < 0):
        raise SpecificationError(
            f"iterations must be a non-negative int, got {iterations!r}")
    if iterations is None:
        n = problem.n_vertices
        iterations = min(8 * n * n, 60_000)
    if seed is None:  # seeded from the OS: no two searches agree
        return _quadratic_search(coupling, problem, iterations, seed, initial)
    key = (coupling.n_qubits, _edge_digest(coupling.edges),
           problem.n_vertices, _edge_digest(problem.edges), iterations,
           seed, None if initial is None else tuple(initial.log_to_phys))
    cached = _PLACEMENT_CACHE.get(key)
    if cached is not None:
        _PLACEMENT_COUNTER.hit()
        return Mapping(cached, coupling.n_qubits)
    _PLACEMENT_COUNTER.miss()
    mapping = _quadratic_search(coupling, problem, iterations, seed, initial)
    with _PLACEMENT_LOCK:
        if key not in _PLACEMENT_CACHE:
            if len(_PLACEMENT_CACHE) >= _PLACEMENT_CACHE_CAP:
                _PLACEMENT_CACHE.pop(next(iter(_PLACEMENT_CACHE)))
            _PLACEMENT_CACHE[key] = tuple(mapping.log_to_phys)
    return mapping


def _quadratic_search(coupling: CouplingGraph, problem: ProblemGraph,
                      iterations: int, seed: int,
                      initial: Optional[Mapping]) -> Mapping:
    """The search :func:`quadratic_placement` describes, on checked input."""
    rng = random.Random(seed)
    mapping = (initial.copy() if initial is not None
               else degree_placement(coupling, problem))
    n = problem.n_vertices
    if not coupling.edges:  # e.g. line(1): there is no move to try
        return mapping

    distances = coupling.distance_matrix
    adjacency: List[List[int]] = [[] for _ in range(n)]
    for u, v in sorted(problem.edges):
        adjacency[u].append(v)
        adjacency[v].append(u)
    adjacent = [set(nbrs) for nbrs in adjacency]
    # A dense vertex sums ``step`` over its non-neighbours: its neighbour
    # sum is the sum over every occupied site, reach[pb] - reach[pa],
    # minus its own site and its non-neighbours' sites.
    complement = [len(nbrs) > (n - 1) // 2 for nbrs in adjacency]
    terms = [[w for w in range(n) if w != v and w not in adjacent[v]]
             if complement[v] else adjacency[v] for v in range(n)]
    log_to_phys, phys_to_log = mapping.log_to_phys, mapping.phys_to_log
    # The draws inline CPython's randrange(width) / choice(seq): take
    # width.bit_length() bits and redraw while the value is >= width
    # (Random._randbelow_with_getrandbits), so the stream is the same.
    # A coupling-free site gets width 1 and 0 bits: getrandbits(0) draws
    # nothing, and indexing its empty tuple raises IndexError as
    # choice(()) does.
    getrandbits = rng.getrandbits
    n_bits = n.bit_length()
    couplings = [coupling.neighbors(q) for q in range(coupling.n_qubits)]
    widths = [len(sites) or 1 for sites in couplings]
    bits = [len(sites).bit_length() for sites in couplings]

    if all(len(vertex_terms) <= _MASK_TERMS for vertex_terms in terms):
        # reach[s] = sum of d(s, q) over the occupied sites q, kept only
        # when some vertex uses its complement (empty otherwise).
        reach: List[int] = []
        if any(complement):
            reach = distances[:, log_to_phys].sum(axis=1,
                                                  dtype="int64").tolist()
        # steps[pa][i][q] = d(pb, q) - d(pa, q) for pb = couplings[pa][i]:
        # how much farther site q is after a move from pa to the coupled
        # site pb.  Each row is built on first use as a plain list, ~10x
        # faster than numpy scalar indexing in the tight loop below.
        steps: List[List[Optional[List[int]]]] = [
            [None] * len(sites) for sites in couplings]
        for _ in range(iterations):
            a = getrandbits(n_bits)
            while a >= n:
                a = getrandbits(n_bits)
            pa = log_to_phys[a]
            k, width = bits[pa], widths[pa]
            i = getrandbits(k)
            while i >= width:
                i = getrandbits(k)
            pb = couplings[pa][i]
            b = phys_to_log[pb]
            step = steps[pa][i]
            if step is None:
                step = steps[pa][i] = (distances[pb]
                                       - distances[pa]).tolist()
            # delta = sum over N(a) of d(pb, p(w)) - d(pa, p(w)), minus
            # the same sum over N(b).  The edge a~b keeps its length, but
            # each sum counts it as shrinking by d(pa, pb) = 1, hence the
            # +2.  For a complement vertex, step[p(a)] = step[pa] = +1
            # and step[p(b)] = step[pb] = -1.
            delta = 0
            for w in terms[a]:
                delta += step[log_to_phys[w]]
            if complement[a]:
                delta = reach[pb] - reach[pa] - 1 - delta
            if b is not None:
                other = 0
                for w in terms[b]:
                    other += step[log_to_phys[w]]
                if complement[b]:
                    other = reach[pb] - reach[pa] + 1 - other
                delta -= other
                if b in adjacent[a]:
                    delta += 2
            if delta <= 0:
                log_to_phys[a] = pb
                phys_to_log[pb] = a
                phys_to_log[pa] = b
                if b is not None:
                    log_to_phys[b] = pa
                elif reach:
                    # pa emptied and pb filled: every site's reach moves
                    # by d(s, pb) - d(s, pa) = step[s].
                    reach = [r + d for r, d in zip(reach, step)]
        return mapping

    # The same search, scoring each endpoint from a mask of its
    # neighbours' sites: with a move's ``far`` and ``level`` masks (see
    # _move_masks), the sum the direct loop adds up is
    # 2 * |mask & far| + |mask & level| - degree.  A vertex keeps the
    # mask of its terms' sites, so a complement vertex's neighbours are
    # the occupied sites less that mask and its own site.  An accepted
    # move toggles the movers' two sites in every mask holding one of
    # them (a mask holding both keeps both), and in ``occupied`` when
    # the target site was spare.
    masks = [sum(1 << log_to_phys[w] for w in vertex_terms)
             for vertex_terms in terms]
    users: List[List[int]] = [[] for _ in range(n)]
    for v, vertex_terms in enumerate(terms):
        for w in vertex_terms:
            users[w].append(v)
    degrees = [len(nbrs) for nbrs in adjacency]
    occupied = sum(1 << q for q in log_to_phys)
    moves = _move_masks(distances, couplings)
    for _ in range(iterations):
        a = getrandbits(n_bits)
        while a >= n:
            a = getrandbits(n_bits)
        pa = log_to_phys[a]
        k, width = bits[pa], widths[pa]
        i = getrandbits(k)
        while i >= width:
            i = getrandbits(k)
        pb, far, level, flip = moves[pa][i]
        b = phys_to_log[pb]
        mask = masks[a]
        if complement[a]:
            mask ^= occupied ^ 1 << pa
        delta = 2 * (mask & far).bit_count() - degrees[a]
        if level:
            delta += (mask & level).bit_count()
        if b is not None:
            mask = masks[b]
            if complement[b]:
                # b's own site, pb, comes one step nearer: its bit is in
                # neither ``far`` nor ``level``, so it may stay set.
                mask ^= occupied
            delta -= 2 * (mask & far).bit_count() - degrees[b]
            if level:
                delta -= (mask & level).bit_count()
            if b in adjacent[a]:
                delta += 2
        if delta <= 0:
            log_to_phys[a] = pb
            phys_to_log[pb] = a
            phys_to_log[pa] = b
            for v in users[a]:
                masks[v] ^= flip
            if b is not None:
                log_to_phys[b] = pa
                for v in users[b]:
                    masks[v] ^= flip
            else:
                occupied ^= flip
    return mapping

"""Exhaustive enumeration oracles: cluster sums, spin sums, duality."""

import ast
import concurrent.futures
import dataclasses
import inspect
import random
import time
from fractions import Fraction

import pytest

from pottstrip import bruteforce
from pottstrip.bruteforce import (
    dual_boundary_z,
    duality_witness_check,
    duality_witnesses,
    fixed_boundary_spin_z,
    fk_histogram,
    fk_spectrum,
    fk_z,
    spin_z,
)
from pottstrip.lattice import CyclicStrip, horizontal, square_strip, vertical
from pottstrip.polynomial import Q, Q0, v


def test_single_site_ring():
    # one vertex, one self-loop that wraps the ring
    strip = square_strip(1, 1)
    assert fk_z(strip) == Q + Q * v
    spectrum = fk_spectrum(strip)
    assert spectrum[0] == Q
    assert spectrum[1] == Q * v


def test_two_site_ring():
    # two vertices on a ring of two bonds; both bonds together wrap
    strip = square_strip(1, 2)
    assert fk_z(strip) == Q ** 2 + 2 * Q * v + Q * v ** 2
    spectrum = fk_spectrum(strip)
    assert spectrum[0] == Q ** 2 + 2 * Q * v
    assert spectrum[1] == Q * v ** 2


def test_spectrum_totals_and_range():
    strip = square_strip(2, 2)
    spectrum = fk_spectrum(strip)
    assert spectrum.total() == fk_z(strip)
    assert sum(1 for _ in spectrum.items()) == strip.width + 1
    with pytest.raises(ValueError):
        spectrum[strip.width + 1]
    with pytest.raises(ValueError):
        spectrum[-1]


def test_top_sector_is_all_horizontal():
    # j = L forces every horizontal bond on and every vertical bond off
    for width, length in ((1, 2), (2, 2), (2, 3)):
        strip = square_strip(width, length)
        assert fk_spectrum(strip)[width] == Q ** width * v ** (width * length)


def test_histogram_is_cached_and_worker_independent():
    strip = square_strip(2, 3)
    assert fk_histogram(strip) is fk_histogram(strip)
    assert fk_histogram(strip, workers=1) == fk_histogram(strip, workers=2)
    assert fk_z(strip, workers=2) == fk_z(strip, workers=1)


def test_histogram_cache_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
    size = bruteforce._HISTOGRAM_CACHE_SIZE
    strips = sorted(
        (square_strip(width, length) for width in range(1, 6) for length in range(1, 11)),
        key=lambda s: (s.edge_count, s.width),
    )[: size + 1]
    for strip in strips[:size]:
        fk_histogram(strip)
    first = fk_histogram(strips[0], workers=2)  # a hit, whatever the workers
    assert first is bruteforce._HISTOGRAM_CACHE[strips[0]]
    fk_histogram(strips[size])
    cache = bruteforce._HISTOGRAM_CACHE
    assert len(cache) == size
    assert strips[1] not in cache
    assert strips[0] in cache and strips[size] in cache


def _record_pools(monkeypatch, real=False):
    """Patch the pool class where the lazy import looks it up, and return
    the list that each pool started appends its worker count to.  Unless
    ``real``, the pool runs the chunks in this process and starts none."""
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    pool = RecordedPool if real else FakePool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return started


def test_workers_are_capped_at_the_cpu_count(monkeypatch):
    """A huge --workers value reaches the pool as the CPU count; a fake pool
    runs the chunks in this process, so no process is started.  4x2 has
    two columns, so its walk pools once the threshold is lowered to 2**14."""
    seen = _record_pools(monkeypatch)
    monkeypatch.setattr(bruteforce.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
    monkeypatch.setattr(bruteforce, "_POOL_WALK", 1 << 14)
    strip = square_strip(4, 2)
    pooled = fk_histogram(strip, workers=10**6)
    assert seen == [2]
    bruteforce._HISTOGRAM_CACHE.clear()
    assert fk_histogram(strip, workers=1) == pooled
    assert seen == [2]


def test_pool_starts_only_for_large_unmemoised_walks(monkeypatch):
    """With two workers, a strip of three or more columns runs its
    memoised walk in this process whatever its size; one of one or two
    columns pools only from 2**20 subsets.  The chunks are stubbed out, so
    only the jobs are inspected."""
    seen = _record_pools(monkeypatch)
    jobs = []

    def chunk(args):
        jobs.append(args)
        return {}

    monkeypatch.setattr(bruteforce, "_histogram_chunk", chunk)
    monkeypatch.setattr(bruteforce.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
    cases = [
        # (width, length, pool started, period)
        (2, 4, False, 3),  # 2**12
        (3, 3, False, 5),  # 2**15
        (3, 4, False, 5),  # 2**20
        (2, 8, False, 3),  # 2**24
        (1, 24, False, 1),  # 2**24
        (4, 2, False, 0),  # 2**14
        (5, 2, False, 0),  # 2**18
        (6, 2, True, 0),  # 2**22
        (11, 1, True, 0),  # 2**21
        (12, 1, True, 0),  # 2**23
        (2, 3, False, 0),  # 2**9, below the memo threshold
    ]
    for width, length, pools, period in cases:
        seen.clear()
        jobs.clear()
        fk_histogram(square_strip(width, length), workers=2)
        assert seen == ([2] if pools else []), (width, length)
        assert len(jobs) == (8 if pools else 1), (width, length)
        assert {job[-1] for job in jobs} == {period}, (width, length)


def test_walk_matches_single_mask_classification():
    """The depth-first walk against the plain union-find run on each mask
    alone, on every square strip with E <= 12 (width 1 and the N = 1
    self-loop strips included).  With the column program reversed, the
    horizontal bonds come first, so two winding clusters can merge."""
    square = [
        strip
        for strip in (square_strip(w, n) for w in range(1, 13) for n in range(1, 13))
        if strip.edge_count <= 12
    ]
    assert square_strip(1, 1) in square and square_strip(6, 1) in square
    reversed_program = [
        dataclasses.replace(s, column_program=s.column_program[::-1])
        for s in square
    ]
    for strip in square + reversed_program:
        edges = strip.edges()
        expected = {}
        for mask in range(1 << strip.edge_count):
            key = bruteforce._direct_stats(mask, edges, strip.vertex_count)
            expected[key] = expected.get(key, 0) + 1
        assert fk_histogram(strip) == expected, strip


def test_prefix_jobs_add_up_to_the_serial_walk():
    strip = square_strip(3, 3)
    edges = strip.edges()
    serial = bruteforce._subset_histogram(edges, strip.vertex_count)
    assert sum(serial.values()) == 2 ** strip.edge_count
    for depth in range(5):
        merged = {}
        for prefix in range(1 << depth):
            part = bruteforce._subset_histogram(edges, strip.vertex_count, depth, prefix)
            for key, c in part.items():
                merged[key] = merged.get(key, 0) + c
        assert merged == serial, depth


def test_two_worker_pool_matches_one_worker(monkeypatch):
    """A real two-process pool on 8x1 (one column, 2**15 subsets, with the
    pool threshold lowered to 2**15) returns the one-worker histogram."""
    started = _record_pools(monkeypatch, real=True)
    monkeypatch.setattr(bruteforce.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
    monkeypatch.setattr(bruteforce, "_POOL_WALK", 1 << 15)
    strip = square_strip(8, 1)
    assert strip.edge_count == 15
    pooled = fk_histogram(strip, workers=2)
    assert started == [2]
    bruteforce._HISTOGRAM_CACHE.clear()
    assert fk_histogram(strip, workers=1) == pooled
    assert sum(pooled.values()) == 2 ** strip.edge_count


def _mask_histogram(strip):
    """Counts per (n, b, j) from the plain union-find run on each mask alone."""
    edges = strip.edges()
    expected = {}
    for mask in range(1 << strip.edge_count):
        key = bruteforce._direct_stats(mask, edges, strip.vertex_count)
        expected[key] = expected.get(key, 0) + 1
    return expected


def _mirror(strip):
    return bruteforce._first_column_mirror(
        strip.width, strip.edges()[: len(strip.column_program)]
    )


def test_reduced_walk_matches_single_mask_classification(monkeypatch):
    """On 3x3 and 2x5 (E = 15) the walk covers one first-column pattern of
    each mirror pair, and still equals the per-mask count."""
    monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
    assert _mirror(square_strip(3, 3)) == ((0, 1), (2, 4))
    assert _mirror(square_strip(2, 5)) == ((1, 2),)
    for strip in (square_strip(3, 3), square_strip(2, 5)):
        assert fk_histogram(strip) == _mask_histogram(strip), strip


def test_non_invariant_first_column_walks_every_pattern(monkeypatch):
    """A first column the reflection does not map onto itself (vertical(1)
    missing) gets no mirror pairs, and the walk stays exact, with memo
    points from the first column boundary on."""
    monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
    program = (vertical(0), horizontal(0), horizontal(1), horizontal(2))
    assert CyclicStrip(3, 3, program).edge_count == 12
    for length in (3, 4):
        strip = CyclicStrip(3, length, program)
        assert _mirror(strip) == ()
        assert fk_histogram(strip) == _mask_histogram(strip)


def test_walk_visits_20_of_32_first_column_patterns():
    """On 3x4 the reflection swaps v0 with v1 and h0 with h2: 8 of the 32
    first-column patterns are their own mirror image and 12 pairs are
    walked once, so 12 prefix jobs are pruned to nothing."""
    strip = square_strip(3, 4)
    edges = strip.edges()
    mirror = _mirror(strip)
    parts = [
        bruteforce._subset_histogram(edges, strip.vertex_count, 5, p, mirror)
        for p in range(32)
    ]
    assert sum(1 for part in parts if part) == 20
    merged = {}
    for part in parts:
        for key, c in part.items():
            merged[key] = merged.get(key, 0) + c
    assert sum(merged.values()) == 2 ** strip.edge_count
    assert merged == fk_histogram(strip)


def test_two_worker_pool_with_mirrored_jobs(monkeypatch):
    """A real two-process pool on 4x2 (pool threshold lowered to 2**14),
    whose prefix jobs hold subtrees counted twice, returns the per-mask
    count."""
    started = _record_pools(monkeypatch, real=True)
    monkeypatch.setattr(bruteforce.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
    monkeypatch.setattr(bruteforce, "_POOL_WALK", 1 << 14)
    strip = square_strip(4, 2)
    assert _mirror(strip) == ((0, 2), (3, 6), (4, 5))
    assert fk_histogram(strip, workers=2) == _mask_histogram(strip)
    assert started == [2]


def _memoised(strip, depth=0, prefix=0, period=None):
    """The walk with the reflection and column boundaries fk_histogram would
    use, called directly so that the memo is on whatever the strip's size."""
    return bruteforce._subset_histogram(
        strip.edges(),
        strip.vertex_count,
        depth,
        prefix,
        _mirror(strip),
        len(strip.column_program) if period is None else period,
    )


def test_memoised_walk_matches_single_mask_classification(monkeypatch):
    """Walking each column-boundary frontier once still counts every
    subset: on 2x4, 2x5, 3x3 and 1x12, and on the same strips with the
    column program reversed, where two wrapped roots merge below a memo
    point, the memoised walk equals the per-mask count, both called
    directly and through fk_histogram."""
    monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
    square = [square_strip(2, 4), square_strip(2, 5), square_strip(3, 3), square_strip(1, 12)]
    reversed_program = [
        dataclasses.replace(s, column_program=s.column_program[::-1]) for s in square
    ]
    for strip in square + reversed_program:
        expected = _mask_histogram(strip)
        assert _memoised(strip) == expected, strip
        assert fk_histogram(strip) == expected, strip


def test_memoised_walk_on_random_edge_lists():
    """Edge lists of no strip, with self-loops and displacements from -1 to
    2: roots wrap and displacements within a root vary above a memo point,
    and live sets of one size recur at different boundaries, none of which
    a cyclic strip shows there.  With periods 1-4 the memoised walk equals
    the per-mask count."""
    rng = random.Random(10)
    for _ in range(40):
        n_vertices = rng.randint(2, 6)
        edges = tuple(
            (rng.randrange(n_vertices), rng.randrange(n_vertices), rng.randint(-1, 2))
            for _ in range(rng.randint(6, 11))
        )
        expected = {}
        for mask in range(1 << len(edges)):
            key = bruteforce._direct_stats(mask, edges, n_vertices)
            expected[key] = expected.get(key, 0) + 1
        for period in (1, 2, 3, 4):
            walked = bruteforce._subset_histogram(edges, n_vertices, period=period)
            assert walked == expected, (edges, period)


def test_memoised_prefix_jobs_add_up_to_the_plain_walk():
    """On 3x4, prefix jobs at depths 0-5 with memo points, with and without
    the reflection, sum to the walk without memo points."""
    strip = square_strip(3, 4)
    edges = strip.edges()
    plain = _memoised(strip, period=0)
    assert sum(plain.values()) == 2 ** strip.edge_count
    for mirror in ((), _mirror(strip)):
        for depth in range(6):
            merged = {}
            for prefix in range(1 << depth):
                part = bruteforce._subset_histogram(
                    edges, strip.vertex_count, depth, prefix, mirror, 5
                )
                for key, c in part.items():
                    merged[key] = merged.get(key, 0) + c
            assert merged == plain, (mirror, depth)


def test_memoised_histograms_equal_the_plain_walk(monkeypatch):
    monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
    for strip in (square_strip(3, 4), square_strip(4, 3)):
        assert fk_histogram(strip) == _memoised(strip, period=0), strip


def test_oracle_at_the_edge_cap_is_fast_and_exact(monkeypatch):
    """2x8 and 1x24 have E = MAX_EDGES; the memoised walk certifies the
    character sum on both in under a second each."""
    from pottstrip.characters import z_from_characters

    monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
    for strip in (square_strip(2, 8), square_strip(1, 24)):
        assert strip.edge_count == bruteforce.MAX_EDGES
        start = time.perf_counter()
        z = fk_z(strip)
        assert time.perf_counter() - start < 1, strip
        assert z == z_from_characters(strip).value, strip


def test_edge_budget():
    with pytest.raises(ValueError):
        fk_z(square_strip(3, 5))  # 25 bonds, over the 2**24 subset budget


def test_spin_z_matches_cluster_expansion():
    for width, length in ((1, 2), (2, 2), (2, 3)):
        strip = square_strip(width, length)
        z = fk_z(strip)
        for q in (1, 2, 3):
            for vv in (Fraction(1), Fraction(2), Fraction(1, 2)):
                assert spin_z(strip, q, vv) == z.evaluate(
                    {"Q": q, "v": vv, "Q0": 0}
                )


def test_spin_z_budget_and_validation():
    with pytest.raises(ValueError):
        spin_z(square_strip(3, 4), 10, 1)  # 10**12 configurations
    with pytest.raises(ValueError):
        spin_z(square_strip(1, 2), 0, 1)


def test_spin_budget_refuses_a_huge_strip_without_the_power():
    """q**V is never built: V = 10**12 sites are refused at once."""
    for call in (
        lambda: spin_z(square_strip(1, 10 ** 12), 2, 1),
        lambda: fixed_boundary_spin_z(3, 10 ** 12, 2, 1),
    ):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="budget"):
            call()
        assert time.perf_counter() - start < 1


def test_spin_sum_at_q_1_is_linear_in_the_bonds():
    """At q = 1 every bond has equal ends, so Z = (1+v)**E; only the one
    non-zero bond count is raised to its power."""
    start = time.perf_counter()
    assert spin_z(square_strip(1, 10 ** 5), 1, 1) == 2 ** (10 ** 5)
    assert time.perf_counter() - start < 2


def test_oracle_imports_only_lattice_and_polynomial():
    """The oracle shares no code with the transfer engine: of the package
    it imports only ``lattice`` and ``polynomial``."""
    used = set()
    for node in ast.walk(ast.parse(inspect.getsource(bruteforce))):
        if isinstance(node, ast.ImportFrom) and node.level:
            # ``from .x import y`` names module x; ``from . import x`` names x
            used.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pottstrip"):
            used.add(node.module)
        elif isinstance(node, ast.Import):
            used.update(a.name for a in node.names if a.name.startswith("pottstrip"))
    assert used <= {"lattice", "polynomial", "pottstrip.lattice", "pottstrip.polynomial"}


def test_fixed_boundary_spin_z_hand_value():
    # width 3, length 2, Q = 2, v = 1: boundary rows pinned, one free row.
    # Boundary-row bonds give (1+v)^4 = 16; the four (s0, s1) configurations
    # weigh 64 + 4 + 4 + 4 = 76: 16 * 76 = 1216.
    assert fixed_boundary_spin_z(3, 2, 2, 1) == 1216


def test_fixed_boundary_spin_z_reduces_to_free_row():
    # at v = 0 every bond weighs 1, so the sum counts configurations
    assert fixed_boundary_spin_z(3, 2, 5, 0) == 25


def test_fixed_boundary_spin_z_validation():
    # rows 1..width-2 are free: at v = 0 the 3x4 strip counts 2**4 spins
    assert fixed_boundary_spin_z(3, 4, 2, 0) == 2 ** 4
    with pytest.raises(ValueError):
        fixed_boundary_spin_z(2, 4, 2, 1)  # no free rows
    with pytest.raises(ValueError):
        fixed_boundary_spin_z(3, 0, 2, 1)


def test_dual_boundary_z_two_site_ring():
    strip = square_strip(1, 2)
    assert dual_boundary_z(strip) == Q ** 2 + 2 * Q * v + Q0 * v ** 2


def test_dual_boundary_z_specializations():
    for width, length in ((1, 2), (2, 2)):
        strip = square_strip(width, length)
        reweighted = dual_boundary_z(strip)
        spectrum = fk_spectrum(strip)
        assert reweighted.subs_poly("Q0", Q) == fk_z(strip)
        assert reweighted.subs_poly("Q0", 0) == spectrum[0]


def test_duality_witnesses_exhaustive():
    for width, length in ((1, 2), (2, 2), (2, 3)):
        strip = square_strip(width, length)
        witnesses = list(duality_witnesses(strip))
        assert len(witnesses) == 2 ** strip.edge_count
        assert all(w.ok for w in witnesses)
        # every dual configuration has at least one winding cluster: the
        # exterior cap vertices are always in some cluster
        assert all(w.dual_ntc >= 1 for w in witnesses)
        assert duality_witness_check(strip)


def test_duality_witness_counts_on_empty_and_full_masks():
    strip = square_strip(2, 2)
    by_mask = {w.mask: w for w in duality_witnesses(strip)}
    empty = by_mask[0]
    assert empty.direct_bonds == 0
    assert empty.direct_ntc == 0
    assert empty.dual_ntc == 1  # j + 1 with j = 0
    full = by_mask[2 ** strip.edge_count - 1]
    assert full.direct_bonds == strip.edge_count
    assert full.dual_bonds == 0


def test_duality_requires_square_program():
    strip = square_strip(2, 2)
    reordered = dataclasses.replace(
        strip, column_program=tuple(reversed(strip.column_program))
    )
    with pytest.raises(ValueError):
        list(duality_witnesses(reordered))

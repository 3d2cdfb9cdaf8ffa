"""Exhaustive enumeration oracles: cluster sums, spin sums, duality."""

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
from pottstrip.lattice import square_strip
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


def test_workers_are_capped_at_the_cpu_count(monkeypatch):
    """A huge --workers value reaches the pool as the CPU count; a fake pool
    runs the chunks in this process, so no process is started."""
    seen = []

    class FakePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(bruteforce, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(bruteforce.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
    strip = square_strip(3, 3)
    pooled = fk_histogram(strip, workers=10**6)
    assert seen == [2]
    bruteforce._HISTOGRAM_CACHE.clear()
    assert fk_histogram(strip, workers=1) == pooled


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
    import dataclasses

    strip = square_strip(2, 2)
    reordered = dataclasses.replace(
        strip, column_program=tuple(reversed(strip.column_program))
    )
    with pytest.raises(ValueError):
        list(duality_witnesses(reordered))

"""Exhaustive enumeration oracles: cluster sums, spin sums, duality."""

import ast
import hashlib
import inspect
import random
import time
from fractions import Fraction

import pytest

from pottstrip import bruteforce
from pottstrip.bruteforce import (
    dual_boundary_z,
    duality_witness_check,
    fixed_boundary_spin_z,
    fk_histogram,
    fk_spectrum,
    fk_z,
    spin_z,
)
from pottstrip.lattice import CyclicStrip, horizontal, square_strip, vertical
from pottstrip.polynomial import Q, Q0, v

import duality_reference
from duality_reference import duality_witnesses
from spin_reference import equal_bond_counts, spin_sum


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


def test_histogram_is_cached_and_ignores_a_second_argument():
    """One walk per strip; a second positional argument, the worker count
    perfbench's traced job still passes, is ignored."""
    strip = square_strip(2, 3)
    assert fk_histogram(strip) is fk_histogram(strip)
    assert fk_histogram(strip, 2) is fk_histogram(strip)


def test_histogram_cache_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
    size = bruteforce._HISTOGRAM_CACHE_SIZE
    strips = sorted(
        (square_strip(width, length) for width in range(1, 6) for length in range(1, 11)),
        key=lambda s: (s.edge_count, s.width),
    )[: size + 1]
    for strip in strips[:size]:
        fk_histogram(strip)
    first = fk_histogram(strips[0])  # a hit
    assert first is bruteforce._HISTOGRAM_CACHE[strips[0]]
    fk_histogram(strips[size])
    cache = bruteforce._HISTOGRAM_CACHE
    assert len(cache) == size
    assert strips[1] not in cache
    assert strips[0] in cache and strips[size] in cache


def _mask_histogram(strip):
    """Counts per (n, b, j) from the plain union-find run on each mask alone."""
    edges = strip.edges()
    expected = {}
    for mask in range(1 << strip.edge_count):
        key = duality_reference._direct_stats(mask, edges, strip.vertex_count)
        expected[key] = expected.get(key, 0) + 1
    return expected


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
        CyclicStrip(s.width, s.length, s.column_program[::-1]) for s in square
    ]
    for strip in square + reversed_program:
        assert fk_histogram(strip) == _mask_histogram(strip), strip


def _ordered(strip, order):
    """The edges of ``strip`` in ``order`` (``bruteforce._rows`` or
    ``bruteforce._columns``), and its memo period."""
    indices, period = order(strip)
    edges = strip.edges()
    return tuple(edges[k] for k in indices), period


def _walk(strip, order):
    """The memoised walk of ``strip`` in ``order``, whichever order
    fk_histogram would pick."""
    edges, period = _ordered(strip, order)
    return bruteforce._subset_histogram(edges, strip.vertex_count, period)


def _digest(histogram):
    return hashlib.sha256(repr(sorted(histogram.items())).encode()).hexdigest()


#: sha256 of the sorted histogram items of the square strips with
#: 20 < E <= 24, each recorded from the walk in the order the rule leaves
#: out there, which takes 1-10 s per strip.
OTHER_ORDER_DIGESTS = {
    (1, 21): "eb57335ce7ff70bc51df11fc498fb1d3d887bc1f16c1b32002d4983ab5f3fd90",
    (1, 22): "5f174fadf1825fc82c772dd8a6ffb1178e0f764861376383a7f74db7c264c3f4",
    (1, 23): "001f636c6f4b2e20b10511f271b631c553b17f8eac2c5609a83a61c09842e1f4",
    (1, 24): "afe6d9a0eed3ba2ff18e0bd2acda5f1a032ed1897bb40fb5253ec8bff306e9fc",
    (2, 7): "b952de4c2f4de612edaaf129ec6d26868230a4875aca74e4fa7a4383369eea5c",
    (2, 8): "5bdebcf3429704447dcaff700cdaa37ad9b1d16cc0c500a12b0284795f366561",
    (4, 3): "02639fd40a3f1300b71daf8ea3ac2e22e0901450173c189644914bdd8d51fb23",
    (6, 2): "19aeaf4ceaab148d6bb2c7be977171eea04f1bc88374734bbdbb1e117358f2d0",
    (11, 1): "3fd0de6123422d78f93f3d37e2e2d7b724f0d9ff64928f6ae76343369de88b2b",
    (12, 1): "0f89fe6cbeea24c9e104e8084ac52983cd6dfcff5b3e09351e13898b34143407",
}


def test_both_walk_orders_agree(monkeypatch):
    """On every square strip with E <= 24, with its column program as is
    and reversed, the row-major and the column-major memoised walk give the
    histogram of fk_histogram, which test_walk_matches_single_mask_classification
    holds to the per-mask count where E <= 12.  Above E = 20 the order that
    fk_histogram does not pick is a digest recorded from it."""
    monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
    strips = [
        strip
        for strip in (square_strip(w, n) for w in range(1, 13) for n in range(1, 25))
        if strip.edge_count <= bruteforce.MAX_EDGES
    ]
    assert len(strips) == 49
    assert set(OTHER_ORDER_DIGESTS) == {
        (s.width, s.length) for s in strips if s.edge_count > 20
    }
    for square in strips:
        reversed_program = square.column_program[::-1]
        for strip in (square, CyclicStrip(square.width, square.length, reversed_program)):
            walked = fk_histogram(strip)
            if strip.edge_count > 20:
                assert _digest(walked) == OTHER_ORDER_DIGESTS[strip.width, strip.length]
            else:
                for order in (bruteforce._rows, bruteforce._columns):
                    assert _walk(strip, order) == walked, (strip, order)


def test_walk_order_follows_the_strip_shape():
    """Rows while the length is at most max(L + 1, 2L - 2), with a memo
    point every N edges; columns otherwise, with one every column.  Both
    give edge indices, so a bond keeps the index of its dual edge.  The
    timed pairs 4x5, 4x6, 5x6 (faster in rows) and 3x5, 3x8, 4x8 (faster
    in columns) pin the rule."""
    rows = ((3, 4), (4, 3), (6, 2), (12, 1), (4, 5), (4, 6), (5, 6), (5, 8))
    for width, length in rows:
        s = square_strip(width, length)
        assert bruteforce._order(s) == bruteforce._rows(s) != bruteforce._columns(s)
    for width, length in ((2, 4), (2, 8), (1, 24), (3, 5), (3, 8), (4, 8), (5, 9)):
        s = square_strip(width, length)
        assert bruteforce._order(s) == bruteforce._columns(s) != bruteforce._rows(s)
    strip = square_strip(3, 2)
    assert bruteforce._rows(strip) == ((2, 7, 0, 5, 3, 8, 1, 6, 4, 9), 2)
    assert _ordered(strip, bruteforce._rows) == (
        (
            (0, 3, 1), (3, 0, 1), (0, 1, 0), (3, 4, 0),  # row 0
            (1, 4, 1), (4, 1, 1), (1, 2, 0), (4, 5, 0),  # row 1
            (2, 5, 1), (5, 2, 1),  # row 2
        ),
        2,
    )
    assert bruteforce._columns(strip) == (tuple(range(10)), 5)
    assert _ordered(strip, bruteforce._columns) == (strip.edges(), 5)


def test_non_invariant_first_column_walks_every_pattern(monkeypatch):
    """A column program the reflection does not map onto itself
    (vertical(1) missing): both orders stay exact, with memo points from
    the first boundary on."""
    monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
    program = (vertical(0), horizontal(0), horizontal(1), horizontal(2))
    assert CyclicStrip(3, 3, program).edge_count == 12
    for length in (3, 4):
        strip = CyclicStrip(3, length, program)
        expected = _mask_histogram(strip)
        assert fk_histogram(strip) == expected
        for order in (bruteforce._rows, bruteforce._columns):
            assert _walk(strip, order) == expected, order


#: (width, length, column program reversed): E = 14-15, above the E <= 12
#: of test_walk_matches_single_mask_classification.  8x1 is one column of
#: 2**15 subsets; the reflection i -> L-1-i maps the first column of 4x2,
#: 3x3 and 2x5 onto itself, and no pattern is left out for its mirror
#: image; reversed, two wrapped roots merge below a memo point.
PER_MASK_CASES = [
    (width, length, reverse)
    for width, length in ((8, 1), (4, 2), (3, 3), (2, 5))
    for reverse in (False, True)
]


@pytest.mark.parametrize(
    "width, length, reverse",
    PER_MASK_CASES,
    ids=[f"{w}x{n}{'-reversed' if r else ''}" for w, n, r in PER_MASK_CASES],
)
def test_every_walk_equals_the_per_mask_count(monkeypatch, width, length, reverse):
    """fk_histogram and both memoised orders equal the per-mask count."""
    monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
    strip = square_strip(width, length)
    if reverse:
        strip = CyclicStrip(width, length, strip.column_program[::-1])
    expected = _mask_histogram(strip)
    assert fk_histogram(strip) == expected
    for order in (bruteforce._rows, bruteforce._columns):
        assert _walk(strip, order) == expected, order


def test_the_reflected_edge_list_gives_the_same_histogram(monkeypatch):
    """On 3x4 the reflection i -> L-1-i swaps v0 with v1 and h0 with h2: 8
    of the 32 first-column patterns are their own mirror image and 12 pairs
    are not, so 20 of the 32 would do.  The walk visits all 32, and walking
    the reflected edge list gives the same histogram."""
    monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
    strip = square_strip(3, 4)
    width, period = strip.width, len(strip.column_program)
    assert period == 5

    def reflect(vertex):
        column, row = divmod(vertex, width)
        return column * width + width - 1 - row

    edges = strip.edges()
    reflected = tuple((reflect(a), reflect(b), d) for a, b, d in edges)
    first = [frozenset(e[:2]) for e in edges[:period]]
    image = [first.index(frozenset(e[:2])) for e in reflected[:period]]
    assert sorted(image) == list(range(period))
    images = {
        p: sum(1 << image[k] for k in range(period) if p >> k & 1)
        for p in range(1 << period)
    }
    assert sum(1 for p, q in images.items() if p == q) == 8
    assert len({min(p, q) for p, q in images.items()}) == 20
    walked = bruteforce._subset_histogram(reflected, strip.vertex_count, period)
    assert sum(walked.values()) == 2 ** strip.edge_count
    assert walked == fk_histogram(strip)


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
            key = duality_reference._direct_stats(mask, edges, n_vertices)
            expected[key] = expected.get(key, 0) + 1
        for period in (1, 2, 3, 4):
            walked = bruteforce._subset_histogram(edges, n_vertices, period=period)
            assert walked == expected, (edges, period)


def test_every_memo_period_equals_the_plain_walk_in_both_orders():
    """On 3x3, the serial walk without memo points counts all 2**E subsets,
    and the walk with a memo point every 1-5 edges, in either order,
    equals it."""
    strip = square_strip(3, 3)
    serial = bruteforce._subset_histogram(strip.edges(), strip.vertex_count)
    assert sum(serial.values()) == 2 ** strip.edge_count
    for order in (bruteforce._rows, bruteforce._columns):
        edges, _ = _ordered(strip, order)
        for period in range(1, 6):
            walked = bruteforce._subset_histogram(edges, strip.vertex_count, period)
            assert walked == serial, (order, period)


def test_column_and_row_memo_periods_equal_the_plain_walk():
    """On 3x4, the column-major walk with a memo point every 1-5 edges, and
    the row-major one with one every N edges, equal the walk without memo
    points, which counts all 2**E subsets."""
    strip = square_strip(3, 4)
    edges = strip.edges()
    plain = bruteforce._subset_histogram(edges, strip.vertex_count)
    assert sum(plain.values()) == 2 ** strip.edge_count
    for period in range(1, 6):
        memoised = bruteforce._subset_histogram(edges, strip.vertex_count, period)
        assert memoised == plain, period
    assert _walk(strip, bruteforce._rows) == plain


def test_memoised_histograms_equal_the_plain_walk(monkeypatch):
    """On 4x3, fk_histogram equals the walk without memo points, which
    counts all 2**E subsets."""
    monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
    strip = square_strip(4, 3)
    plain = bruteforce._subset_histogram(strip.edges(), strip.vertex_count)
    assert sum(plain.values()) == 2 ** strip.edge_count
    assert fk_histogram(strip) == plain


def test_oracle_at_the_edge_cap_is_fast_and_exact(monkeypatch):
    """2x8 and 1x24 have E = MAX_EDGES, 12x1 and 6x2 E = 23 and 22; the
    memoised walk and the duality check each take under a second on each.
    The partition function equals the character sum, or on 12x1, whose
    208012 states the engine refuses, the spin sums at Q = 2."""
    from pottstrip.characters import z_from_characters

    monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
    for strip in (square_strip(2, 8), square_strip(1, 24), square_strip(12, 1), square_strip(6, 2)):
        assert strip.edge_count >= bruteforce.MAX_EDGES - 2
        start = time.perf_counter()
        z = fk_z(strip)
        assert time.perf_counter() - start < 1, strip
        start = time.perf_counter()
        assert duality_witness_check(strip), strip
        assert time.perf_counter() - start < 1, strip
        if strip.width < 12:
            assert z == z_from_characters(strip).value, strip
        else:
            for vv in (Fraction(1), Fraction(-1, 3)):
                assert spin_z(strip, 2, vv) == z.evaluate({"Q": 2, "v": vv, "Q0": 0})


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


SPIN_VALUES = (0, 1, 2, Fraction(1, 2), Fraction(-1, 3), -1)


def test_spin_sweep_matches_the_brute_sum():
    """On every square strip with q**V <= 10**5 (the strips of q = 2 at
    q = 1), free and with rows 0 and L-1 pinned on widths >= 3."""
    for q in (1, 2, 3):
        for width in range(1, 17):
            for length in range(1, 17):
                if max(q, 2) ** (width * length) > 10 ** 5:
                    continue
                strip = square_strip(width, length)
                for rows in ((), (0, width - 1)) if width >= 3 else ((),):
                    counts = equal_bond_counts(strip, q, rows)
                    for vv in SPIN_VALUES:
                        assert bruteforce._spin_sum(strip, q, vv, rows) == spin_sum(counts, vv), (
                            strip, q, vv, rows)


@pytest.mark.parametrize(
    "program",
    [
        (horizontal(0), horizontal(1), horizontal(2), vertical(0), vertical(1)),
        (horizontal(0), vertical(0), horizontal(1), vertical(1), horizontal(2)),
        (vertical(0), horizontal(0), horizontal(1)),
        (horizontal(0), horizontal(2)),
    ],
    ids=["reordered", "diagonal", "row-2-isolated", "row-1-isolated"],
)
def test_spin_sweep_matches_the_brute_sum_on_other_programs(program):
    """Verticals after the horizontals, verticals between them (diagonal
    bonds), and a row with no bond at all, whose sites are factors q."""
    for length in (1, 2, 3):
        strip = CyclicStrip(3, length, program)
        for q in (2, 3):
            for rows in ((), (0, 2)):
                counts = equal_bond_counts(strip, q, rows)
                for vv in SPIN_VALUES:
                    assert bruteforce._spin_sum(strip, q, vv, rows) == spin_sum(counts, vv)


def test_spin_z_counts_proper_colourings_at_v_minus_1():
    """At v = -1 a bond with equal ends weighs 0, so Z counts the proper
    q-colourings: two of the bipartite 8x10 strip, none of 8x9, whose odd
    rows close an odd cycle.  That is 2**80 configurations for the sweep."""
    start = time.perf_counter()
    assert spin_z(square_strip(8, 10), 2, -1) == 2
    assert spin_z(square_strip(8, 9), 2, -1) == 0
    assert time.perf_counter() - start < 2


def test_spin_sweep_is_independent_of_the_walks():
    """The spin sweep shares with the FK and duality walks only ``_order``,
    the choice of the side a strip is swept along."""
    tree = ast.parse(inspect.getsource(bruteforce._spin_sum))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert "_order" in names
    assert not names & {"_walk", "_subset_histogram", "_paired_histogram", "fk_histogram",
                        "_HISTOGRAM_CACHE"}


def test_spin_z_budget_and_validation():
    """3x4 at q = 100 takes 100**6 * 20 steps, over MAX_SPIN_STEPS, and is
    refused at once."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match="budget"):
        spin_z(square_strip(3, 4), 100, 1)
    assert time.perf_counter() - start < 1
    with pytest.raises(ValueError):
        spin_z(square_strip(1, 2), 0, 1)


def test_spin_budget_refusal_prints_the_bond_count_as_its_factors():
    """On 3x10**4299 the step count has over 8000 digits, past the
    int-to-string limit: the refusal shows E as its two factors, with the
    formula of the steps, and names the spin budget."""
    with pytest.raises(ValueError, match=r"takes at least 2\*\*4 \* E \* \(1 \+ E \* 2 // 2\*\*13\) "
                       r"steps for its E = 5 x 10{4299} bonds, over the spin budget of 100000000"):
        spin_z(square_strip(3, 10 ** 4299), 2, 1)


@pytest.mark.parametrize("q, vv", [(2, 0.1), (True, 1), (2.0, 1), (2, True), (2, "1/2")], ids=repr)
def test_spin_sums_refuse_inexact_values(monkeypatch, q, vv):
    """Like ``MultiPoly.evaluate``, the spin sums take an int q and an int
    or Fraction v, and refuse anything else before a bond is listed: a
    float v used to be summed as its binary value, not as 1/10."""

    def refuse(strip):
        raise AssertionError("the bonds were listed")

    monkeypatch.setattr(CyclicStrip, "edges", refuse)
    with pytest.raises(TypeError, match="q must be an int and v an int or a Fraction"):
        spin_z(square_strip(2, 2), q, vv)
    with pytest.raises(TypeError, match="q must be an int and v an int or a Fraction"):
        fixed_boundary_spin_z(3, 2, q, vv)


def test_spin_budget_counts_the_bits_of_the_weights():
    """On 1x10**6 a sweep would keep only eight states, but each weight
    grows to about 10**6 bits, so the updates cost minutes: the budget
    counts a step per 2**13 bits of weight and refuses it at once."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match="budget"):
        spin_z(square_strip(1, 10 ** 6), 2, 1)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("length", [630000, 200000])
def test_spin_budget_refuses_before_the_bonds_are_listed(monkeypatch, length):
    """The ring of a free row of N >= 3 sites holds three sites live, so the
    sweep of 1xN takes at least 2**4 * E steps, over the budget for both
    lengths: refused from the column program in under 1 s, before
    ``edges()`` lists a bond."""

    def refuse(strip):
        raise AssertionError("the bonds were listed")

    monkeypatch.setattr(CyclicStrip, "edges", refuse)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="budget"):
        spin_z(square_strip(1, length), 2, 1)
    assert time.perf_counter() - start < 1


def _widest_front(strip, pinned_rows):
    """The most unpinned sites the sweep holds live at once, in its bond order."""
    edges = strip.edges()
    ordered = [edges[k][:2] for k in bruteforce._order(strip)[0]]
    last = {x: i for i, ends in enumerate(ordered) for x in ends}
    live, widest = set(), 0
    for i, ends in enumerate(ordered):
        live |= {x for x in ends if x % strip.width not in pinned_rows}
        widest = max(widest, len(live))
        live -= {x for x in ends if last[x] == i}
    return widest


@pytest.mark.parametrize(
    "strip, pinned",
    [(square_strip(w, n), ()) for w in range(1, 5) for n in (1, 2, 3)]
    + [(square_strip(w, n), (0, w - 1)) for w in (3, 4) for n in (1, 2, 3)]
    + [(CyclicStrip(3, 2, (vertical(0), horizontal(0), vertical(1), horizontal(1), horizontal(2))), ())],
    ids=str,
)
def test_spin_budget_admits_a_sweep_at_its_exact_cost(monkeypatch, strip, pinned):
    """The bound read off the column program never exceeds the sweep's
    widest front: at a budget of exactly E * 2**(w + 1) steps the sweep
    runs, and one step less refuses it."""
    cost = strip.edge_count * 2 ** (_widest_front(strip, pinned) + 1)
    monkeypatch.setattr(bruteforce, "MAX_SPIN_STEPS", cost)
    assert bruteforce._spin_sum(strip, 2, 1, pinned) == spin_sum(equal_bond_counts(strip, 2, pinned), 1)
    monkeypatch.setattr(bruteforce, "MAX_SPIN_STEPS", cost - 1)
    with pytest.raises(ValueError, match="budget"):
        bruteforce._spin_sum(strip, 2, 1, pinned)


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
    it imports only ``lattice``, ``polynomial`` and ``_record``, the base
    of every record type.  It starts no process: it imports neither
    ``concurrent`` nor ``multiprocessing``."""
    used, outside = set(), set()
    for node in ast.walk(ast.parse(inspect.getsource(bruteforce))):
        if isinstance(node, ast.ImportFrom) and node.level:
            # ``from .x import y`` names module x; ``from . import x`` names x
            used.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom):
            outside.add(node.module)
        elif isinstance(node, ast.Import):
            outside.update(a.name for a in node.names)
    used |= {name for name in outside if name.startswith("pottstrip")}
    assert used <= {"lattice", "polynomial", "_record", "pottstrip.lattice", "pottstrip.polynomial"}
    assert not {name.split(".")[0] for name in outside} & {"concurrent", "multiprocessing"}


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
    for length in (0, -1):
        with pytest.raises(ValueError, match="length must be >= 1"):
            fixed_boundary_spin_z(3, length, 2, 1)


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
    reordered = CyclicStrip(2, 2, tuple(reversed(strip.column_program)))
    with pytest.raises(ValueError):
        list(duality_witnesses(reordered))
    with pytest.raises(ValueError):
        duality_witness_check(reordered)


def _witness_histogram(strip):
    """Counts per (direct (n, b, j), dual (n, b, j)) from the per-mask
    witnesses."""
    out = {}
    for w in duality_witnesses(strip):
        key = (
            (w.direct_ntc + w.direct_trivial, w.direct_bonds, w.direct_ntc),
            (w.dual_ntc + w.dual_trivial, w.dual_bonds, w.dual_ntc),
        )
        out[key] = out.get(key, 0) + 1
    return out


def test_paired_walk_equals_the_per_mask_witnesses():
    square = [
        strip
        for strip in (square_strip(w, n) for w in range(1, 13) for n in range(1, 13))
        if strip.edge_count <= 12
    ]
    assert square_strip(1, 1) in square and square_strip(6, 1) in square
    for strip in square:
        assert bruteforce._paired_histogram(strip) == _witness_histogram(strip), strip


def test_duality_check_fails_when_a_dual_edge_becomes_a_loop(monkeypatch):
    strip = square_strip(2, 3)
    dual_graph = bruteforce._dual_graph
    for k in range(strip.edge_count):

        def faulty(strip, k=k):
            edges, caps, n_dual = dual_graph(strip)
            u, _, d = edges[k]
            return edges[:k] + ((u, u, d),) + edges[k + 1 :], caps, n_dual

        monkeypatch.setattr(bruteforce, "_dual_graph", faulty)
        assert not duality_witness_check(strip), k


def test_duality_check_classifies_no_mask_on_its_own(monkeypatch):
    """The library has one duality path, the paired walk: the per-mask
    classifier lives only in the tests' reference, and the check holds
    with it broken."""
    for name in ("DualityWitness", "duality_witnesses", "_direct_stats"):
        assert not hasattr(bruteforce, name), name

    def broken(*args):
        raise AssertionError("classified a mask on its own")

    monkeypatch.setattr(duality_reference, "_direct_stats", broken)
    with pytest.raises(AssertionError, match="on its own"):
        next(duality_witnesses(square_strip(2, 3)))
    assert duality_witness_check(square_strip(2, 3))


def test_paired_walk_on_random_dual_graphs(monkeypatch):
    """Random column programs, and dual edge lists of no strip with
    self-loops and displacements from -1 to 2 over the strip's dual
    vertices: roots wrap and displacements vary above a memo point on both
    sides, as no square strip shows there.  The memoised paired walk equals
    the per-mask witnesses."""
    rng = random.Random(16)
    dual_graph = bruteforce._dual_graph
    for _ in range(40):
        width = rng.randint(1, 3)
        ops = [vertical(i) for i in range(width - 1)]
        ops += [horizontal(i) for i in range(width)]
        program = tuple(rng.sample(ops, rng.randint(1, len(ops))))
        strip = CyclicStrip(width, rng.randint(2, 4), program)
        if strip.edge_count > 12:
            continue
        _, caps, n_dual = dual_graph(square_strip(width, strip.length))
        edges = tuple(
            (rng.randrange(n_dual), rng.randrange(n_dual), rng.randint(-1, 2))
            for _ in range(strip.edge_count)
        )
        monkeypatch.setattr(
            bruteforce, "_dual_graph", lambda _, e=edges, c=caps, n=n_dual: (e, c, n)
        )
        assert bruteforce._paired_histogram(strip) == _witness_histogram(strip), (
            strip,
            edges,
        )


def test_duality_check_holds_on_every_strip_up_to_the_cap(monkeypatch):
    """On each of the 49 square strips with E <= MAX_EDGES (2x6, E = 18,
    among them) the duality check holds, and the paired walk counts all
    2**E subsets with fk_histogram as its direct marginal."""
    monkeypatch.setattr(bruteforce, "_HISTOGRAM_CACHE", {})
    strips = [
        strip
        for strip in (square_strip(w, n) for w in range(1, 13) for n in range(1, 25))
        if strip.edge_count <= bruteforce.MAX_EDGES
    ]
    assert len(strips) == 49 and square_strip(2, 6) in strips
    for strip in strips:
        assert duality_witness_check(strip), strip
        paired = bruteforce._paired_histogram(strip)
        assert sum(paired.values()) == 2 ** strip.edge_count, strip
        direct = {}
        for (stats, _), count in paired.items():
            direct[stats] = direct.get(stats, 0) + count
        assert direct == fk_histogram(strip), strip

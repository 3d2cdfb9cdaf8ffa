"""The pushed-column reference of the block check: every two-slice column
pushed through the whole column program and compared, as packed ints,
with the column of T_l it should equal.  ``transfer.verify_block_structure``
reads each bond's table once instead and shares none of this loop, so the
tests compare the two reports.

The split, tables, pushes and report records are the library's, looked up
through ``transfer`` at each call, so a test that patches
``transfer._compile`` or ``transfer.split_two_slice`` patches the reference
and the bond-by-bond check alike.
"""

from pottstrip import transfer
from pottstrip.connectivity import count_states, render_two_slice


def pushed_block_structure(strip):
    """The ``BlockStructureReport`` of ``strip`` from its pushed columns:

    * bridge count never increases across a non-zero entry;
    * for each l, the l-bridge states split into count_states(L, l) groups
      of count_states(L, l) states each, a group being the index of a
      state's left half (``transfer.split_two_slice``) in the l-mark basis;
    * entries between different groups of the same bridge count vanish;
    * each group's sub-matrix equals T_l, the column program's product on
      the l-mark states, with each state at its place: the index of its
      right half in the l-mark basis.

    Every column, two-slice or reference, is pushed at one slot width: both
    programs have the same E bonds and ``_compile`` bounds both, so equal
    polynomials pack to equal ints.  Only the two entries of a mismatch are
    unpacked, for its message.  No width cap: the basis has Catalan(2L)
    states, so keep L small.
    """
    width = strip.width
    basis = list(transfer._index(2 * width, 0))
    n = len(basis)
    bonds = len(strip.column_program)
    w = transfer._slot_width(bonds, n)
    program = [
        transfer._bond_table(2 * width, 0, transfer._on_right_slice(op, width))
        for op in strip.column_program
    ]
    sizes = [count_states(width, l) for l in range(width + 1)]
    reference = [
        [transfer._push(transfer._column_program(strip, l), i, w) for i in range(size)]
        for l, size in enumerate(sizes)
    ]
    places = [transfer._index(width, l) for l in range(width + 1)]

    failures = []
    triangular_ok = True
    cross_zero = [True] * (width + 1)
    reduces = [True] * (width + 1)  # sectors whose every half is in the l-mark basis
    bridges, group, place = [], [], []
    at = [{} for _ in sizes]  # the state at[l][group][place]
    for k, key in enumerate(basis):
        left, right = transfer.split_two_slice(key, width)
        l = left[-1].bit_count()
        g, p = places[l].get(left), places[l].get(right)
        bridges.append(l)
        group.append(g)
        place.append(p)
        if g is not None and p is not None:
            at[l].setdefault(g, {})[p] = k
        elif reduces[l]:
            reduces[l] = False
            failures.append(f"group at l={l} does not reduce onto the reference basis")
    matches = reduces.copy()

    def move(b, a):
        return f"{render_two_slice(basis[b], width)} -> {render_two_slice(basis[a], width)}"

    for b in range(n):
        l, g = bridges[b], group[b]
        got = {}
        for a, entry in transfer._push(program, b, w).items():
            if bridges[a] > l:
                triangular_ok = False
                failures.append(f"bridge count grows {l} -> {bridges[a]} on {move(b, a)}")
            elif bridges[a] == l and group[a] != g:
                cross_zero[l] = False
                failures.append(f"leakage between sub-blocks at l={l}: {move(b, a)}")
            elif bridges[a] == l:
                got[place[a]] = entry
        if not reduces[l]:
            continue
        want = reference[l][place[b]]
        for p in sorted(got.keys() | want.keys()):
            if got.get(p, 0) != want.get(p, 0):
                matches[l] = False
                failures.append(
                    f"entry mismatch at l={l}, {move(b, at[l][g][p])}: "
                    f"{transfer._unpack(got.get(p, 0), w, bonds)} != "
                    f"{transfer._unpack(want.get(p, 0), w, bonds)}"
                )

    sector_reports = []
    for l, expected in enumerate(sizes):
        group_sizes = tuple(len(states) for _, states in sorted(at[l].items()))
        sector_reports.append(
            transfer.SectorReport(
                bridges=l,
                group_count=len(group_sizes),
                expected_groups=expected,
                group_sizes=group_sizes,
                expected_size=expected,
                cross_group_zero=cross_zero[l],
                matches_reference=matches[l],
            )
        )
        if len(group_sizes) != expected:
            failures.append(f"sector l={l} has {len(group_sizes)} sub-blocks, expected {expected}")
        if any(size != expected for size in group_sizes):
            failures.append(
                f"sector l={l} has sub-block sizes {group_sizes}, expected all {expected}"
            )

    return transfer.BlockStructureReport(
        width=strip.width,
        dimension=n,
        triangular_ok=triangular_ok,
        sectors=tuple(sector_reports),
        failures=tuple(failures),
    )

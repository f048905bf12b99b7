"""The one F_p reduction against the eliminations it replaced.

``fp_reference`` keeps the earlier ``fp_nullspace``, ``_nullspace_gf2`` and
dense ``fp_det`` unchanged; ``gfq.gf_matrix_rank`` gives a third, dense rank.
Entries are drawn from [-p, 2p), so columns hold entries divisible by p,
which the reference cannot take and the reduction drops on entry.
"""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

import fp_reference
import zipcones
from gfq import field_for, gf_matrix_rank
from zipcones import modules
from zipcones.fplinalg import (_reduce_bits, _reduce_dicts, dependent_columns,
                               fp_det, fp_nullspace)
from zipcones.oracle import _columns, enumerate_weight_monomials

PRIMES = (2, 3, 5, 7)


def _reduced(vec, p):
    return {k: x % p for k, x in vec.items() if x % p}


def _merged(combo, tags, p):
    out = {}
    for j, cj in combo.items():
        for i, ci in tags[j].items():
            out[i] = (out.get(i, 0) + cj * ci) % p
    return _reduced(out, p)


@st.composite
def _system(draw):
    p = draw(st.sampled_from(PRIMES))
    key = draw(st.sampled_from([
        st.integers(0, 15), st.tuples(st.integers(0, 3), st.integers(0, 3))]))
    entry = st.integers(-p, 2 * p - 1)
    columns = draw(st.lists(st.dictionaries(key, entry, max_size=6),
                            max_size=12))
    tags = draw(st.lists(st.dictionaries(st.integers(0, 9), entry,
                                         max_size=4),
                         min_size=len(columns), max_size=len(columns)))
    return p, columns, tags


@settings(max_examples=300, deadline=None)
@given(_system())
def test_reduction_matches_the_reference_eliminations(system):
    p, columns, tags = system
    ref = fp_reference.fp_nullspace([_reduced(c, p) for c in columns], p)
    dependent = dependent_columns(columns, p)
    assert set(dependent) == {max(combo) for combo in ref}
    assert dependent == sorted(dependent)

    field = field_for(p)  # rank does not change under a field extension
    keys = sorted({k for c in columns for k in c})
    rows = [[field.from_int(c.get(k, 0)) for k in keys] for c in columns]
    assert len(dependent) == len(columns) - gf_matrix_rank(field, rows)

    units = [{i: 1} for i in range(len(columns))]
    assert fp_nullspace(columns, units, p) == ref
    assert fp_nullspace(columns, tags, p) == [_merged(c, tags, p)
                                              for c in ref]


def _assert_same_pivots(columns, tags):
    # at p = 2 both reductions take the least sorted key as the pivot, so
    # they keep the same pivot columns, in the same order, and leave the
    # same tags; bit r of a bit column is rank r of a dict column
    dict_pivots, dict_dependent = _reduce_dicts(columns, tags, 2)
    bit_pivots, bit_dependent = _reduce_bits(columns, tags)
    assert [low.bit_length() - 1 for low in bit_pivots] == list(dict_pivots)
    assert bit_pivots == {1 << r: sum(1 << k for k in pv)
                          for r, pv in dict_pivots.items()}
    assert bit_dependent == dict_dependent
    return len(dict_pivots), len(dict_dependent)


def test_both_reductions_pivot_alike_on_oracle_columns():
    rng, seen = random.Random(3), [0, 0]
    for n, low in [(2, -8), (3, -4), (4, -2)]:
        weights = [lam for lam in itertools.product(range(1, low - 1, -1),
                                                    repeat=n)
                   if list(lam) == sorted(lam, reverse=True)
                   and 0 < len(enumerate_weight_monomials(lam, n, 2)) <= 400]
        for lam in rng.sample(weights, 8):
            columns = _columns(enumerate_weight_monomials(lam, n, 2), n, 2)[0]
            counts = _assert_same_pivots(
                columns, [{i: 1} for i in range(len(columns))])
            seen = [a + b for a, b in zip(seen, counts)]
    assert seen[0] > 500 and seen[1] >= 10  # pivots, dependent columns


def test_both_reductions_pivot_alike_on_invariant_columns(monkeypatch):
    systems, real = [], modules.fp_nullspace

    def recorded(columns, tags, p):
        systems.append((columns, tags))
        return real(columns, tags, p)

    monkeypatch.setattr(modules, "fp_nullspace", recorded)
    rng = random.Random(5)
    weights = [lam for lam in itertools.product(range(2, -5, -1), repeat=3)
               if lam[0] >= lam[1] >= lam[2]]
    for lam in rng.sample(weights, 10):
        modules.invariants_finite_group(modules.build_module(lam, 3, 2))
    counts = [_assert_same_pivots(columns, tags) for columns, tags in systems]
    assert len(systems) >= 10 and all(map(sum, zip(*counts)))


def _leibniz(mat, p):
    n, total = len(mat), 0
    for perm in itertools.permutations(range(n)):
        flips = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = (-1) ** flips
        for i, j in enumerate(perm):
            term *= mat[i][j]
        total += term
    return total % p


def test_det_matches_the_references_on_all_small_matrices():
    for n, p in [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3)]:
        for flat in itertools.product(range(p), repeat=n * n):
            mat = [flat[i * n:(i + 1) * n] for i in range(n)]
            expect = _leibniz(mat, p)
            assert fp_det(mat, p) == fp_reference.fp_det(mat, p) == expect


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(1, 5), st.data())
def test_det_matches_the_references_on_random_matrices(p, n, data):
    mat = data.draw(st.lists(
        st.lists(st.integers(-p, 2 * p - 1), min_size=n, max_size=n),
        min_size=n, max_size=n))
    # a repeated row makes the matrix singular
    if n > 1 and data.draw(st.booleans()):
        mat[-1] = list(mat[0])
    assert fp_det(mat, p) == fp_reference.fp_det(mat, p) == _leibniz(mat, p)


def test_entries_divisible_by_p_do_not_stall_the_reduction():
    # the earlier odd-p loop took the entry 3 = 0 mod 3 as a pivot and
    # then never changed the second column
    code = ("from zipcones.fplinalg import dependent_columns, fp_nullspace\n"
            "cols = [{0: 3, 1: 1}, {0: 1}]\n"
            "print(fp_nullspace(cols, [{0: 1}, {1: 1}], 3),"
            " dependent_columns(cols, 3))")
    src = Path(zipcones.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]

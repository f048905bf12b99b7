"""The one F_p reduction against the eliminations it replaced.

``fp_reference`` keeps the earlier ``fp_nullspace``, ``_nullspace_gf2``,
dense ``fp_det`` and two-dict peel unchanged; ``gfq.gf_matrix_rank`` gives
a third, dense rank.  Entries are drawn from [-p, 2p), so columns hold
entries divisible by p, which the reference cannot take and the reduction
drops on entry.  The peeled reduction is also checked against
``_reduce_dicts`` on every column, with no peel.
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
from zipcones.fplinalg import (_peel, _reduce_dicts, dependent_columns,
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
    assert _peel(columns, p) == fp_reference.peel_reference(columns, p)

    field = field_for(p)  # rank does not change under a field extension
    keys = sorted({k for c in columns for k in c})
    rows = [[field.from_int(c.get(k, 0)) for k in keys] for c in columns]
    assert len(dependent) == len(columns) - gf_matrix_rank(field, rows)

    units = [{i: 1} for i in range(len(columns))]
    assert fp_nullspace(columns, units, p) == ref
    assert fp_nullspace(columns, tags, p) == [_merged(c, tags, p)
                                              for c in ref]


def _assert_peeled_as_one_shot(columns, tags, p):
    # the peel changes no output: the dependent indices and the tags they
    # leave are those of the one-shot reduction of every column
    one_shot = _reduce_dicts(columns, tags, p)[1]
    assert dependent_columns(columns, p) == list(one_shot)
    assert fp_nullspace(columns, tags, p) == list(one_shot.values())
    core = _peel(columns, p)
    assert core == fp_reference.peel_reference(columns, p)
    return len(columns) - len(core), len(one_shot)


def test_peeled_and_one_shot_reductions_agree_on_oracle_columns():
    # at p = 3 the weights go twice as deep, to the same degrees
    rng = random.Random(3)
    for p in (2, 3):
        seen = [0, 0]
        for n, low in [(2, -8), (3, -4), (4, -2)]:
            weights = [lam for lam in itertools.product(
                           range(1, (p - 1) * low - 1, -1), repeat=n)
                       if list(lam) == sorted(lam, reverse=True)
                       and 0 < len(enumerate_weight_monomials(lam, n, p))
                       <= 400]
            for lam in rng.sample(weights, min(8, len(weights))):
                columns = _columns(enumerate_weight_monomials(lam, n, p),
                                   n, p)[0]
                counts = _assert_peeled_as_one_shot(
                    columns, [{i: 1} for i in range(len(columns))], p)
                seen = [a + b for a, b in zip(seen, counts)]
        assert seen[0] > 300 and seen[1] >= 3, seen  # peeled, dependent


def test_peeled_and_one_shot_reductions_agree_on_invariant_columns(
        monkeypatch):
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
    counts = [_assert_peeled_as_one_shot(columns, tags, 2)
              for columns, tags in systems]
    assert len(systems) >= 10 and all(map(sum, zip(*counts)))


def test_peeling_a_column_frees_the_next_row():
    # row 0 holds only column 0; its peel leaves row 1 to column 1, and so
    # on; rows 3 and 4 each hold both columns 3 and 4, so those stay, and
    # column 4 is column 3 times 4 = 1 mod 3
    columns = [{0: 1, 1: 1}, {1: 2, 2: 1}, {2: 1, 3: 1},
               {3: 1, 4: 1}, {3: 4, 4: 4}]
    assert _peel(columns, 3) == [3, 4]
    assert dependent_columns(columns, 3) == [4]
    _assert_peeled_as_one_shot(columns, [{i: 1} for i in range(5)], 3)


def test_no_row_peels_when_every_row_holds_two_columns():
    columns = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]
    units = [{i: 1} for i in range(3)]
    for p, dependent in [(2, [2]), (3, [])]:
        assert _peel(columns, p) == [0, 1, 2]
        assert dependent_columns(columns, p) == dependent
        _assert_peeled_as_one_shot(columns, units, p)


def test_a_row_holding_every_column_fits_in_the_count_field():
    # row -1 holds all n columns, so its count reaches n: 0b1000 at n = 8,
    # the top bit of the w = 4 bit field, and 0b111 at n = 7, every bit of
    # w = 3.  The first n - 2 columns peel on their own rows, which leaves
    # row -1 and row -2 holding the last two, and column n - 1 is twice n - 2
    for n in (8, 7):
        columns = [{-1: 1, i: 1} for i in range(n - 2)]
        columns += [{-1: 1, -2: 1}, {-1: 2, -2: 2}]
        assert _peel(columns, 3) == [n - 2, n - 1]
        assert dependent_columns(columns, 3) == [n - 1]
        _assert_peeled_as_one_shot(columns, [{i: 1} for i in range(n)], 3)


def test_deep_weights_peel_to_a_small_core():
    # the core sizes that make deep weights cheap: the 36 terms of the one
    # section at -6,-6,-6, and nothing where h0 = 0
    for lam, n, p, core in [((-6, -6, -6), 3, 2, 36), ((-35, -35), 2, 3, 0)]:
        columns = _columns(enumerate_weight_monomials(lam, n, p), n, p)[0]
        assert len(_peel(columns, p)) == core, lam


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

"""Mutation checks: each entry breaks the package in one known way, and the
tests it names must catch that.

``MUTANTS`` lists (file under ``src/zipcones``, exact old text, new text,
test node ids).  ``python tests/mutants.py`` takes the mutants one at a
time: it copies ``src/`` to a temporary directory, applies the edit there
(it stops if the old text does not occur exactly once), runs the named
tests against the copy and prints whether they caught it.  A mutant
whose tests all pass survives; the run exits 1 if any survives or a test
run errs.  It is not part of the test suite, which checks only that every
old text still occurs exactly once (``tests/test_mutants.py``), so a
refactor that moves the code moves its mutant in the same change.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zipcones"

MUTANTS = [
    ("sections.py", "last_s).frobenius()", "last_s)",
     ["tests/test_sections.py::test_gamma_displayed_matrix_n2"]),
    ("sections.py", "sign = (-1) ** (r - 1)", "sign = (-1) ** r",
     ["tests/test_sections.py::test_gamma_displayed_matrix_n3"]),
    ("fpoly.py", "total + term if idx % 2 == 0 else total - term",
     "total - term if idx % 2 == 0 else total + term",
     ["tests/test_sections.py::test_gamma_displayed_matrix_n2"]),
    ("modules.py", "if all(c % (p - 1) == 0 for c in w)",
     "if all(c % p == 0 for c in w)",
     ["tests/test_modules.py::test_invariants_full_group_gl2_f3"]),
    ("fplinalg.py", "flips = sum(a > b for", "flips = sum(a < b for",
     ["tests/test_fplinalg.py::"
      "test_det_matches_the_references_on_all_small_matrices"]),
    ("fpoly.py", 'tuple(_field(("a", i, j))', 'tuple(_field(("a", j, i))',
     ["tests/test_sections.py::test_entry_exponents_match_the_decoded_reference"]),
    ("sections.py", "if min(r, s) < 1 or r + s > n + 1:", "if r + s > n + 1:",
     ["tests/test_sections.py::"
      "test_clear_denominators_rejects_an_index_off_the_triangle"]),
    ("sections.py", "if num not in (delta.body, -delta.body)", "if False",
     ["tests/test_sections.py::test_anti_diagonal_identity_check_is_live"]),
    ("sections.py", "if section.weight != stated(p):", "if False:",
     ["tests/test_sections.py::test_stated_weight_check_is_live"]),
    ("sections.py", "if first.weight != second.weight:", "if False:",
     ["tests/test_sections.py::test_summand_weight_check_is_live"]),
    ("fplinalg.py", "for j, c in tag.items() if c % p)",
     "for j, c in tag.items() if c % p and j)",
     ["tests/test_fplinalg.py::"
      "test_reduction_matches_the_reference_eliminations"]),
    ("weights.py", "Weight(p ** (n - i) for i", "Weight(p ** (i - 1) for i",
     ["tests/test_catalog.py::test_hw_functional_sp2n_form"]),
    ("modules.py", "if all(c % (p - 1) == 0 for c in w)", "if True",
     ["tests/test_modules.py::test_torus_filter_reads_every_weight_coordinate"]),
    ("modules.py", "if act(f) != f * scale:", "if False:",
     ["tests/test_modules.py::test_left_borel_law_check_is_live"]),
    ("modules.py", "_check_borel_law(p, lower, [delta],",
     "_check_borel_law(p, lower, [],",
     ["tests/test_modules.py::test_lower_stability_check_is_live"]),
    ("modules.py", "sign * body ** B", "body ** B",
     ["tests/test_modules.py::test_norm_carries_chi_at_rank_one"]),
    ("modules.py", "(p - 1) // (p ** n - 1)", "(p - 1) // (p ** n + 1)",
     ["tests/test_modules.py::test_tilde_valuation_is_the_boundary_functional"]),
    ("modules.py", "sigma != [(r + 1) % n for r in range(n)]",
     "sigma != [(r - 1) % n for r in range(n)]",
     ["tests/test_modules.py::"
      "test_word_certificate_agrees_with_the_n_by_n_walk"]),
    ("modules.py", "[(0, 1)] * (p - 1)", "[(0, 1)] * p",
     ["tests/test_modules.py::"
      "test_word_certificate_agrees_with_the_n_by_n_walk"]),
    ("cones.py", "_dot(h, lam) // w for w", "_dot(h, lam) // w - 1 for w",
     ["tests/test_cones.py::test_monoid_membership_decides_on_a_pointed_cone"]),
    ("cones.py", "if any(residual):", "if False:",
     ["tests/test_cones.py::test_monoid_membership_tail_below_the_rank"]),
    ("cones.py", "if not all(heights):", "if False:",
     ["tests/test_cones.py::test_monoid_membership_refuses_a_cone_with_a_line"]),
    ("cones.py", "z & common == common and z != zp and z != zn", "False",
     ["tests/test_cones.py::test_halfspaces_of_reaches_rank_4"]),
    ("cones.py", "if len(pos) * len(neg) > DD_PAIR_GUARD:", "if False:",
     ["tests/test_cli.py::test_cone_past_the_pair_guard_exits_2"]),
    ("rootdata.py", "if n * n > ROOT_GUARD:", "if False:",
     ["tests/test_cli.py::test_rootdata_past_the_root_guard_exits_2"]),
    ("modules.py",
     "if len({max(f.terms) for f in polys}) != len(polys):",
     "if False:",
     ["tests/test_modules.py::test_leading_term_check_is_live"]),
    ("weights.py", "if p >= PRIME_LIMIT:", "if False:",
     ["tests/test_weights.py::test_is_prime_refuses_psi13"]),
    ("modules.py",
     "reps = flag_representatives(n, p)\n"
     "    delta = delta_minor(n, p, i)",
     "delta = delta_minor(n, p, i)\n"
     "    reps = flag_representatives(n, p)",
     ["tests/test_modules.py::"
      "test_tilde_refuses_on_the_flag_guard_before_building"]),
    ("catalog.py", "if self.monoid:\n            # the search always decides",
     "if False:\n            # the search always decides",
     ["tests/test_cli.py::test_sweep_monoid_agreement_default_box"]),
    ("fplinalg.py", "if rows[k] & mask == 1:", "if rows[k] & mask <= 2:",
     ["tests/test_fplinalg.py::test_peeling_a_column_frees_the_next_row"]),
    ("fplinalg.py", "live[j] = None", "pass",
     ["tests/test_fplinalg.py::test_deep_weights_peel_to_a_small_core"]),
    ("fplinalg.py", "w = len(columns).bit_length()",
     "w = len(columns).bit_length() - 1",
     ["tests/test_fplinalg.py::"
      "test_a_row_holding_every_column_fits_in_the_count_field"]),
    ("cones.py", "rows[t] = None", "rows[t] = rows.pop(t, None)",
     ["tests/test_cones.py::test_halfspace_rows_are_integer"]),
    ("weights.py", "(p ** (n - i + 1) - 1)", "(p ** (n - i) - 1)",
     ["tests/test_rootdata.py::test_gaussian_binomial_values"]),
    ("cli.py", "if digits and max(", "if False and max(",
     ["tests/test_cli.py::"
      "test_an_output_integer_past_the_digit_limit_exits_2"]),
    ("oracle.py", "_compositions(free, (free,) * n)",
     "_compositions(free, (free,) * (n - 1) + (0,))",
     ["tests/test_sections.py::"
      "test_h0_grows_under_the_section_ring_embeddings"]),
    ("oracle.py", "step + scale * ds", "step + ds",
     ["tests/test_sections.py::test_h0_image_tables_match_the_substitution"]),
    ("oracle.py", " * prod(s ** x for s, x in zip(signs, split))", "",
     ["tests/test_sections.py::test_h0_image_tables_match_the_substitution"]),
    ("fpoly.py", "while terms <= MONOMIAL_CAP and i < k:", "while i < k:",
     ["tests/test_cli.py::"
      "test_minor_past_a_printable_factorial_exits_2_at_once"]),
    ("fpoly.py", "if field > FIELD_LIMIT:", "if field > FIELD_LIMIT + 1:",
     ["tests/test_fpoly.py::"
      "test_field_limit_admits_exactly_the_64_by_64_entries"]),
    ("modules.py", "    a_var(p, n, n)  # refuses", "    # refuses",
     ["tests/test_cli.py::"
      "test_packed_width_past_the_field_limit_exits_2_at_once"]),
    ("fpoly.py", "    _check_minor_size(i)\n    return minor(",
     "    return minor(",
     ["tests/test_fpoly.py::"
      "test_delta_minor_is_refused_before_its_index_tuples_exist"]),
    ("catalog.py",
     "if self.halfspaces is not None:\n            return self.halfspaces\n"
     "        return halfspaces_of(",
     "return halfspaces_of(",
     ["tests/test_recorded_outputs.py::test_recorded_jobs_print_their_digest"]),
    ("cones.py", "@cached_property\n    def _rays(self):",
     "@property\n    def _rays(self):",
     ["tests/test_cones.py::test_one_double_description_per_presentation"]),
    ("cli.py", "if total > OUTPUT_DIGIT_GUARD:", "if False:",
     ["tests/test_cli.py::test_output_past_the_digit_guard_exits_2_at_once"]),
    ("catalog.py", "cone_zip_sp6_saturated(p), 3)",
     "cone_zip_sp6_saturated(p), 2)",
     ["tests/test_cli.py::test_input_rejections_exit_1"]),
    ("catalog.py", "if entries > CONE_ENTRY_GUARD:", "if False:",
     ["tests/test_cli.py::test_cone_past_the_entry_guard_exits_2"]),
]


def run(path, old, new, tests):
    """pytest's exit code for ``tests`` against the package with ``old``
    replaced by ``new`` in ``path``: 0 means the mutant survived."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(PACKAGE, src / "zipcones",
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "zipcones" / path
        text = target.read_text()
        if text.count(old) != 1:
            sys.exit("%s: %r occurs %d times" % (path, old, text.count(old)))
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "-o", "pythonpath=" + str(src)] + list(tests),
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode


def main():
    bad = 0
    for path, old, new, tests in MUTANTS:
        code = run(path, old, new, tests)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, "error %d" % code)
        bad += code != 1
        print("%-8s %s: %r -> %r" % (verdict, path, old, new), flush=True)
    return int(bad > 0)


if __name__ == "__main__":
    sys.exit(main())

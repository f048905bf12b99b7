import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import zipcones
from zipcones import catalog, cli, cones, fpoly, modules, rootdata
from zipcones.catalog import catalog_cone, catalog_names
from zipcones.cli import main


def run(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    data = out.read_bytes() if out.exists() else b""
    return code, data


def test_h0_verb(tmp_path):
    code, data = run(["h0", "--n", "2", "--p", "2", "--weight", "0,0"], tmp_path)
    assert code == 0
    doc = json.loads(data)
    assert doc["dim"] == 1 and doc["schema"] == "zipcone/1"


def test_cone_verb_halfspaces(tmp_path):
    code, data = run(["cone", "--name", "zip-sp4-sat", "--p", "2",
                      "--emit", "halfspaces"], tmp_path)
    assert code == 0
    doc = json.loads(data)
    assert doc["inequalities"] == [[1, -1], [-2, -1]]


def test_cone_verb_dualises_a_generated_cone(tmp_path):
    # pol has only generators; its facets come from the double description
    code, data = run(["cone", "--name", "pol", "--n", "3", "--p", "2",
                      "--emit", "halfspaces"], tmp_path)
    assert code == 0
    assert data == (b'{"inequalities":[[-2,-2,-1],[-2,-1,-2],[-2,-1,-1],'
                    b'[-1,-2,-2],[-1,-2,-1],[-1,-1,-2]],"name":"Pol",'
                    b'"rank":3,"schema":"zipcone/1"}\n')


def test_cone_verb_monoid_has_no_halfspaces(tmp_path, capsys):
    # a monoid is not its saturation, so it is not dualised
    for argv in (["--name", "schubert", "--n", "3"], ["--name", "zip-sp4"]):
        code, data = run(["cone"] + argv + ["--p", "2", "--emit",
                                            "halfspaces"], tmp_path)
        assert code == 1 and data == b""
        assert "has no halfspace presentation" in capsys.readouterr().err


def test_cone_verb_hw_generators(tmp_path):
    code, data = run(["cone", "--name", "hw", "--n", "3", "--p", "2"], tmp_path)
    assert code == 0
    doc = json.loads(data)
    assert [3, -4, -4] in doc["generators"]
    assert [1, 1, -6] in doc["generators"]


def test_rootdata_verb(tmp_path):
    code, data = run(["rootdata", "--n", "3"], tmp_path)
    assert code == 0
    doc = json.loads(data)
    assert doc["beta_index"] == 2
    assert len(doc["positive_roots"]) == 9


# sha256 of the rootdata document at n = 1..7, as the field-by-field copy
# of the datum printed it
ROOTDATA_SHA256 = {
    1: "9923309d68de98fca75632d11bcdc74867cf59dc5d401cf6df3550dee6ecae3a",
    2: "3425db61a7a9762c6e6d7ee64d40a65a02eeeea7ac1f3175f62080fda4537a11",
    3: "843174111e17e96a127e475342daec7fb0cf3910c0652b3f2bbef77ee229cfe3",
    4: "15d22663dfa852a9b928646d0c3c5a9e6b60592c7cdf29b00a4449c81c9d1e6a",
    5: "f9555f9d1c50f8e01edb2d82c1c79ca077c82b529e9f2dd775cc06121ff4b10f",
    6: "e1a8be24ef8cab62f1d43ce9a6c67f3bb969b1785c1b9ef5324513cca949281e",
    7: "fe83fe43517ed96a8bcee469306baa2ce57f9d49da69a44b79a34cb2b588ff18",
}


def test_rootdata_prints_the_recorded_bytes(tmp_path):
    for n, digest in ROOTDATA_SHA256.items():
        code, data = run(["rootdata", "--n", str(n)], tmp_path)
        assert code == 0 and hashlib.sha256(data).hexdigest() == digest, n


def test_rootdata_past_the_root_guard_exits_2():
    # the root count is checked before any root is built, so n = 3000
    # (9 * 10^6 roots) is refused at once
    n = math.isqrt(rootdata.ROOT_GUARD) + 1
    for size in (n, 3000):
        code, err = _run_process(["rootdata", "--n", str(size)])
        assert code == 2 and "Traceback" not in err, size
        assert err == ("guard error: Sp(%d) has %d positive roots, more than "
                       "the limit %d\n" % (2 * size, size * size,
                                            rootdata.ROOT_GUARD))


def test_cone_past_the_pair_guard_exits_2(tmp_path, monkeypatch, capsys):
    # the dual of pol at n = 5 combines at most 76 ray pairs in one row
    # (row 22 of 25)
    argv = ["cone", "--name", "pol", "--n", "5", "--p", "2",
            "--emit", "halfspaces"]
    monkeypatch.setattr(cones, "DD_PAIR_GUARD", 76)
    code, data = run(argv, tmp_path)
    assert code == 0 and data
    monkeypatch.setattr(cones, "DD_PAIR_GUARD", 75)
    assert run(argv, tmp_path, "refused.json") == (2, b"")
    assert capsys.readouterr().err == (
        "guard error: double description has 76 ray pairs at row 22 of 25, "
        "more than the limit 75 (DD_PAIR_GUARD)\n")


def test_cone_past_the_entry_guard_exits_2(tmp_path, monkeypatch, capsys):
    # gs at n = 10 states 100 rows and 10 generators of 10 entries; the
    # count is checked from n before any vector is built
    argv = ["cone", "--name", "gs", "--n", "10", "--p", "2"]
    monkeypatch.setattr(catalog, "CONE_ENTRY_GUARD", 1100)
    code, data = run(argv, tmp_path)
    assert code == 0 and data
    monkeypatch.setattr(catalog, "CONE_ENTRY_GUARD", 1099)
    assert run(argv, tmp_path, "refused.json") == (2, b"")
    assert capsys.readouterr().err == (
        "guard error: GS states 1100 entries, more than the limit 1099 "
        "(CONE_ENTRY_GUARD)\n")


@pytest.mark.parametrize("name, n, cone, entries", [
    ("gs", 600, "GS", 216360000), ("pol", 600, "Pol", 216000000),
    ("sigma1", 1000, "Sigma", 501000000),
    ("sigma1p", 1000, "Sigma", 500000000), ("hw", 600, "HW", 1078920000),
    ("xplusi", 5001, "XplusI", 50020002),
    ("schubert-sat", 5001, "Schubert", 50020002)])
def test_large_catalog_cones_exit_2_at_once(name, n, cone, entries, capsys):
    # the first four ended in MemoryError after 48-206 s under a 3 GB
    # limit; hw counts each eta entry, of up to 3001 words, by its words,
    # and spent 2.8 s on them before the output check refused it; the
    # cones of at most 2n^2 entries pass the limit from n = 5001
    err = _refused_in_time(["cone", "--name", name, "--n", str(n), "--p",
                            "2", "--emit", "generators"], capsys)
    assert err == ("guard error: %s states %d entries, more than the limit "
                   "%d (CONE_ENTRY_GUARD)\n"
                   % (cone, entries, catalog.CONE_ENTRY_GUARD))


def test_an_output_integer_past_the_digit_limit_exits_2(capsys):
    # the eta weights of hw at n = 30 and a 25-digit p have more digits
    # than Python prints in one integer
    code = main(["cone", "--name", "hw", "--n", "30",
                 "--p", "1000000000000000000000007", "--emit", "generators"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("guard error: ") and err.count("\n") == 1
    assert "more than %d digits" % sys.get_int_max_str_digits() in err


def test_verify_section_verb(tmp_path):
    code, data = run(["verify-section", "--name", "f1sp6", "--p", "2"], tmp_path)
    assert code == 0
    doc = json.loads(data)
    assert doc["verified"] is True and doc["weight"] == [3, -4, -4]


def test_gamma_verb(tmp_path):
    code, data = run(["gamma", "--n", "2", "--p", "2"], tmp_path)
    assert code == 0
    doc = json.loads(data)
    assert doc["gamma"][1][1]["num"]["terms"] == []   # the vanishing corner


def test_vlambda_verb(tmp_path):
    code, data = run(["vlambda", "--n", "2", "--p", "2", "--weight", "2,0"],
                     tmp_path)
    assert code == 0
    doc = json.loads(data)
    assert (doc["dim"], doc["dim_leq0"], doc["dim_invariants"],
            doc["dim_intersection"]) == (3, 1, 1, 0)
    # non-dominant weight reports zeros
    code, data = run(["vlambda", "--n", "2", "--p", "2", "--weight", "0,1"],
                     tmp_path)
    assert code == 0 and json.loads(data)["dim"] == 0


def test_sweep_verb_agreement(tmp_path):
    code, data = run(["sweep", "--n", "2", "--p", "2", "--box", "-4..4",
                      "--compare", "zip-sp4"], tmp_path)
    assert code == 0
    doc = json.loads(data)
    assert doc["compare"] == "ZipSp4"
    assert len(doc["rows"]) == 81
    assert all(r["agree"] for r in doc["rows"])


def test_sweep_monoid_agreement_default_box():
    # oracle dimension positivity coincides with monoid membership over
    # the default box at both small primes
    import io
    from contextlib import redirect_stdout

    for p in ("2", "3"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["sweep", "--n", "2", "--p", p, "--compare", "zip-sp4"])
        assert code == 0
        doc = json.loads(buf.getvalue())
        assert doc["box"] == [-8, 8]
        assert all(r["agree"] for r in doc["rows"])


def test_sweep_saturated_cone_matches_both_membership_tests(capsys):
    # a saturated cone: each row's membership is the catalog's halfspace
    # test and saturated membership on the generators
    from zipcones.catalog import cone_zip_sp6_saturated

    code = main(["sweep", "--n", "3", "--p", "2", "--box=-2..1",
                 "--compare", "zip-sp6-sat"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["compare"] == "ZipSp6Saturated"
    cone = cone_zip_sp6_saturated(2)
    rows = doc["rows"]
    for r in rows:
        lam = tuple(r["weight"])
        assert r["catalog_member"] == cone.halfspaces.contains(lam) \
            == cones.halfspaces_of(cone.generated).contains(lam), lam
        assert r["agree"] == ((r["oracle_dim"] > 0) == r["catalog_member"])
    assert len(rows) == 64
    assert sum(r["catalog_member"] for r in rows) == 13
    assert sum(not r["agree"] for r in rows) == 8


def test_slice_verb(tmp_path):
    code, data = run(["slice", "--cone", "zip-sp6-sat", "--p", "2"], tmp_path,
                     name="out.csv")
    assert code == 0
    lines = data.decode().splitlines()
    assert lines[0] == "u,v,label"
    assert len(lines) == 5   # four extreme rays
    labels = {l.split(",", 2)[2] for l in lines[1:]}
    assert "(-1,-1,-1)" in labels and "(1,0,-2)" in labels


def test_slice_reads_the_rays_of_the_saturation(tmp_path):
    # pol states no halfspaces, so its saturation is the dual of its
    # generators; slice reads it where every other verb does
    code, data = run(["slice", "--cone", "pol", "--n", "3", "--p", "2"],
                     tmp_path, name="out.csv")
    assert code == 0
    labels = [l.split(",", 2)[2] for l in data.decode().splitlines()[1:]]
    rays = cones.extreme_rays(catalog_cone("pol", 3, 2).saturation())
    assert len(rays) > 3
    assert sorted(labels) == sorted("(%s)" % ",".join(map(str, r))
                                    for r in rays)


def test_deterministic_bytes(tmp_path):
    argv = ["sweep", "--n", "2", "--p", "2", "--box", "-3..3",
            "--compare", "zip-sp4"]
    _, first = run(argv, tmp_path, "a.json")
    _, second = run(argv, tmp_path, "b.json")
    assert first == second and first


def test_sweep_does_not_read_the_thread_count(tmp_path, monkeypatch):
    # sweep reads no thread count: no value of the variable fails or
    # changes the bytes
    argv = ["sweep", "--n", "2", "--p", "2", "--box", "-2..2",
            "--compare", "zip-sp4"]
    monkeypatch.delenv("ZIPCONE_THREADS", raising=False)
    code, unset = run(argv, tmp_path, "unset.json")
    assert code == 0 and unset
    for threads in ("abc", "0", "3"):
        monkeypatch.setenv("ZIPCONE_THREADS", threads)
        assert run(argv, tmp_path, threads + ".json") == (0, unset), threads


def test_exit_codes(tmp_path):
    # guard error -> 2
    code, _ = run(["h0", "--n", "3", "--p", "2", "--weight", "100,-200,-300",
                   "--monomial-cap", "10"], tmp_path)
    assert code == 2
    # usage errors -> 1
    code, _ = run(["h0", "--n", "2", "--p", "4", "--weight", "0,0"], tmp_path)
    assert code == 1
    code, _ = run(["cone", "--name", "no-such-cone", "--p", "2"], tmp_path)
    assert code == 1
    code, _ = run(["h0", "--n", "2", "--p", "2", "--weight", "zzz"], tmp_path)
    assert code == 1
    code, _ = run(["gamma", "--n", "9", "--p", "2"], tmp_path)
    assert code == 2
    code, _ = run(["slice", "--cone", "xplusi", "--n", "3", "--p", "2"],
                  tmp_path)
    assert code == 1   # cone with a lineality space has no ray polygon
    assert main([]) == 1   # missing subcommand is a usage error


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--n", "3", "--p", "2", "--box", "0..0", "--compare",
      "zip-sp4"], "error: zip-sp4 is a rank-2 cone"),
    (["sweep", "--n", "2", "--p", "2", "--box", "0..0", "--compare",
      "zip-sp6-sat"], "error: zip-sp6-sat is a rank-3 cone"),
    (["cone", "--name", "gs", "--p", "2"], "error: cone 'gs' needs --n"),
    (["verify-section", "--name", "delta1", "--p", "2"],
     "error: section delta1 needs the matrix size n"),
    (["verify-section", "--name", "delta5", "--n", "3", "--p", "2"],
     "error: delta index out of range for n=3"),
    (["verify-section", "--name", "f1sp6", "--n", "4", "--p", "2"],
     "error: section f1sp6 lives on 3 x 3 matrices"),
    (["sweep", "--n", "2", "--p", "2", "--box", "3..1", "--compare",
      "zip-sp4"], "usage error: empty box"),
    (["sweep", "--n", "2", "--p", "2", "--box", "1-3", "--compare",
      "zip-sp4"], "usage error: box must look like -8..8"),
])
def test_input_rejections_exit_1(argv, message, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith(message) and err.count("\n") == 1
    assert "Traceback" not in err


def test_delta_without_an_index_is_an_unknown_section(tmp_path, capsys):
    # "delta" and "deltax" used to die in int() with a traceback
    for name in ("delta", "deltax"):
        code, data = run(["verify-section", "--name", name, "--n", "3",
                          "--p", "2"], tmp_path)
        assert code == 1 and data == b"", name
        assert capsys.readouterr().err \
            == "error: unknown section %r\n" % name


def test_monoid_with_a_line_is_refused(tmp_path, monkeypatch, capsys):
    # a monoid-presented cone with a line: nothing caps the coefficients of
    # its generators (1,0) and (-1,0), so the sweep refuses the cone with
    # one error line instead of printing a row
    cone = catalog.NamedCone("Lined", 2, [(1, 0), (-1, 0), (0, 1)],
                             monoid=True)
    monkeypatch.setattr(catalog, "catalog_cone", lambda name, n, p: cone)
    code, data = run(["sweep", "--n", "2", "--p", "2", "--box", "7..8",
                      "--compare", "zip-sp4"], tmp_path)
    assert code == 1 and data == b""
    assert capsys.readouterr().err == "error: monoid generators span a line\n"


def test_failed_certificate_of_a_built_section_exits_3(tmp_path, monkeypatch,
                                                      capsys):
    # a body the library builds that fails its certificate falsifies the
    # identity behind it: a theorem violation, not a usage error
    from zipcones import sections

    for cached in (sections.gamma_matrix, sections._delta_section,
                   sections._gamma_section):
        cached.cache_clear()
    monkeypatch.setattr(sections, "unipotent_defect",
                        lambda terms, n, p: (2, 3))
    for argv in (["gamma", "--n", "2", "--p", "3"],
                 ["verify-section", "--name", "delta2", "--n", "2", "--p", "3"],
                 ["verify-section", "--name", "thetasp6", "--p", "3"]):
        code, data = run(argv, tmp_path)
        assert code == 3 and data == b"", argv
        err = capsys.readouterr().err
        assert err.startswith("theorem violation: "), argv
        assert "not invariant under the unipotent generator (2, 1)" in err
        assert "Traceback" not in err


def test_matrix_size_below_one_is_a_usage_error(tmp_path):
    for argv in (["gamma", "--n", "0", "--p", "2"],
                 ["vlambda", "--n", "0", "--p", "2", "--weight", "0"],
                 ["h0", "--n", "-1", "--p", "2", "--weight", "0"],
                 ["rootdata", "--n", "0"]):
        code, data = run(argv, tmp_path)
        assert code == 1 and data == b"", argv


def test_weight_of_the_wrong_rank_is_a_usage_error(capsys):
    # vlambda used to print "dim": 0 for a weight of the wrong rank
    for weight in ("1,0", "1,0,0,0"):
        for verb in ("vlambda", "h0"):
            code = main([verb, "--n", "3", "--p", "2", "--weight", weight])
            out, err = capsys.readouterr()
            assert (code, out) == (1, ""), (verb, weight)
            assert "rank" in err and "Traceback" not in err


def test_monomial_cap_below_zero_is_a_usage_error(tmp_path, capsys):
    for verb in (["h0", "--weight", "0,0"], ["sweep", "--box", "0..0",
                                               "--compare", "zip-sp4"]):
        code, data = run(verb + ["--n", "2", "--p", "2", "--monomial-cap",
                                 "-5"], tmp_path)
        assert code == 1 and data == b"", verb
    assert "usage error: monomial cap" in capsys.readouterr().err
    # the cap bounds the count: one monomial is more than a cap of 0
    code, _ = run(["h0", "--n", "2", "--p", "2", "--weight", "0,0",
                   "--monomial-cap", "0"], tmp_path)
    assert code == 2


def test_sweep_box_past_the_point_guard_exits_2(tmp_path, capsys):
    # the count is computed, not enumerated: this box has 1.6e25 points
    code, data = run(["sweep", "--n", "4", "--p", "2", "--box",
                      "-1000000..1000000", "--compare", "hw"], tmp_path)
    assert code == 2 and data == b""
    assert capsys.readouterr().err == (
        "guard error: sweep box has %d points, more than the limit %d\n"
        % (2000001 ** 4, cli.SWEEP_POINT_GUARD))


def test_sweep_point_guard_is_the_largest_count_answered(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(cli, "SWEEP_POINT_GUARD", 9)
    argv = ["sweep", "--n", "2", "--p", "2", "--compare", "zip-sp4"]
    code, data = run(argv + ["--box", "-1..1"], tmp_path)
    assert code == 0 and len(json.loads(data)["rows"]) == 9
    code, data = run(argv + ["--box", "-1..2"], tmp_path, "refused.json")
    assert code == 2 and data == b""


def test_vlambda_past_the_dimension_guard_exits_2(tmp_path, capsys):
    # the Weyl dimension is computed before any module is built, so a
    # module far past the limit is refused at once, not built out of memory
    code, data = run(["vlambda", "--n", "2", "--p", "2", "--weight",
                      "100000,0"], tmp_path)
    assert code == 2 and data == b""
    assert capsys.readouterr().err == (
        "guard error: module V(100000, 0) has dimension 100001, more than "
        "the limit %d\n" % modules.MODULE_DIM_GUARD)


def test_module_dim_guard_is_the_largest_dimension_built(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(modules, "MODULE_DIM_GUARD", 3)
    argv = ["vlambda", "--n", "2", "--p", "3"]
    code, data = run(argv + ["--weight", "2,0"], tmp_path)
    assert code == 0 and json.loads(data)["dim"] == 3
    code, data = run(argv + ["--weight", "3,0"], tmp_path, "refused.json")
    assert code == 2 and data == b""


def test_vlambda_rank4(tmp_path):
    # no rank is refused as such, and the intersection dimension is h0
    argv = ["--n", "4", "--p", "2", "--weight", "1,1,-2,-2"]
    code, data = run(["vlambda"] + argv, tmp_path)
    assert code == 0
    doc = json.loads(data)
    assert (doc["dim"], doc["dim_leq0"], doc["dim_invariants"],
            doc["dim_intersection"]) == (50, 40, 1, 1)
    code, data = run(["h0"] + argv, tmp_path, "h0.json")
    assert code == 0 and json.loads(data)["dim"] == 1


def test_minor_guard_is_the_largest_minor_expanded(tmp_path, monkeypatch,
                                                   capsys):
    # a 4 x 4 minor has 24 terms and a 5 x 5 minor 120; the cache is
    # emptied so that no minor expanded under the full cap answers
    monkeypatch.setattr(fpoly, "MONOMIAL_CAP", 24)
    fpoly.minor.cache_clear()
    argv = ["verify-section", "--name", "hasse", "--p", "2", "--n"]
    code, data = run(argv + ["4"], tmp_path)
    assert code == 0 and json.loads(data)["name"] == "hasse"
    code, data = run(argv + ["5"], tmp_path, "refused.json")
    assert code == 2 and data == b""
    assert capsys.readouterr().err == (
        "guard error: a 5 x 5 minor has 120 terms, more than the limit 24\n")


def test_gamma_past_rank_4_answers(tmp_path):
    # no rank is refused; the zeros below the anti-diagonal hold at n = 5
    code, data = run(["gamma", "--n", "5", "--p", "2"], tmp_path)
    assert code == 0
    gamma = json.loads(data)["gamma"]
    for r, row in enumerate(gamma, start=1):
        for s, entry in enumerate(row, start=1):
            assert (entry["num"]["terms"] == []) == (r + s > 6), (r, s)


def test_gamma_past_the_term_cap_exits_2(monkeypatch, capsys):
    # the largest reduced numerator of gamma at (6, 7) has 1536 terms:
    # under a cap of 1000 the division that builds it stops at 1001
    from zipcones import sections

    sections.gamma_matrix.cache_clear()
    sections._gamma_section.cache_clear()
    monkeypatch.setattr(fpoly, "MONOMIAL_CAP", 1000)
    code = main(["gamma", "--n", "6", "--p", "7"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == ("guard error: a quotient has 1001 terms, more than the "
                   "limit 1000\n")


def test_minor_past_the_guard_exits_2_at_once(tmp_path, capsys):
    # hasse at n = 9 has 9! = 362880 terms: refused before any expansion,
    # where it used to take minutes and gigabytes, and gamma at n = 9
    # certifies Delta_9 before any entry; delta1 needs only a 1 x 1 minor
    # and answers
    for verb in (["verify-section", "--name", "hasse"], ["gamma"]):
        code, data = run(verb + ["--n", "9", "--p", "2"], tmp_path)
        assert code == 2 and data == b""
        assert capsys.readouterr().err == (
            "guard error: a 9 x 9 minor has 362880 terms, more than the "
            "limit %d\n" % fpoly.MONOMIAL_CAP)
    code, data = run(["verify-section", "--name", "delta1", "--n", "9",
                      "--p", "2"], tmp_path, "delta1.json")
    assert code == 0 and json.loads(data)["weight"] == [1] + [0] * 7 + [-2]


def _refused_in_time(argv, capsys):
    """main(argv) returns 2 within a second, one line on stderr and nothing
    on stdout; returns that line."""
    start = time.perf_counter()
    code = main(argv)
    seconds = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out, err.count("\n")) == (2, "", 1), (argv[:4], err)
    assert seconds < 1, (argv[:4], seconds)
    return err


@pytest.mark.parametrize("n", [1600, 10 ** 6])
def test_minor_past_a_printable_factorial_exits_2_at_once(n, capsys):
    # from n = 1559 on n! has more than 4300 digits, too many to print, and
    # at 10^6 it takes seconds to compute: the count stops at 9! = 362880,
    # the first factorial past the cap
    for verb in (["gamma"], ["verify-section", "--name", "hasse"]):
        err = _refused_in_time(verb + ["--n", str(n), "--p", "2"], capsys)
        assert err == ("guard error: a %d x %d minor has at least 362880 "
                       "terms, more than the limit %d\n"
                       % (n, n, fpoly.MONOMIAL_CAP))


def test_output_past_the_digit_guard_exits_2_at_once(capsys, tmp_path):
    # the eta weights of hw at n = 200 would print 79.5 M digits, seconds of
    # json.dumps; their bit lengths bound the digits before any is printed
    err = _refused_in_time(["cone", "--name", "hw", "--n", "200", "--p",
                            "2"], capsys)
    assert err == ("guard error: the output integers have up to 79539708 "
                   "digits, more than the limit %d (OUTPUT_DIGIT_GUARD)\n"
                   % cli.OUTPUT_DIGIT_GUARD)
    # at n = 120 they have 10.2 M digits, and are printed
    code, data = run(["cone", "--name", "hw", "--n", "120", "--p", "2"],
                     tmp_path)
    assert code == 0 and len(data) > 10 ** 7


def test_packed_width_past_the_field_limit_exits_2_at_once(capsys):
    # a_ij owns a field near 2 max(i, j)^2, so one monomial of a large
    # matrix takes gigabytes; the entry is refused before it is packed, and
    # a module before its Weyl dimension's n^2 factors are multiplied
    err = _refused_in_time(["verify-section", "--name", "delta1", "--n",
                            "20000", "--p", "2"], capsys)
    assert err == ("guard error: ('a', 1, 20000) needs packed-monomial field "
                   "799920003, more than the limit %d\n" % fpoly.FIELD_LIMIT)
    err = _refused_in_time(["vlambda", "--n", "300", "--p", "2", "--weight",
                            ",".join(["0"] * 300)], capsys)
    assert err == ("guard error: ('a', 300, 300) needs packed-monomial field "
                   "179999, more than the limit %d\n" % fpoly.FIELD_LIMIT)
    assert main(["vlambda", "--n", "40", "--p", "2", "--weight",
                 ",".join(["0"] * 40)]) == 0
    assert json.loads(capsys.readouterr().out)["dim_intersection"] == 1


def test_exponent_past_the_limit_exits_2(tmp_path, capsys):
    code, data = run(["h0", "--n", "1", "--p", "2", "--weight",
                      "-4294967296"], tmp_path)
    assert code == 2 and data == b""
    assert "guard error: exponent 4294967296" in capsys.readouterr().err


def test_rank_5_outputs_unchanged(tmp_path):
    # the packed monomials serve any matrix size; bytes as before packing
    code, data = run(["h0", "--n", "5", "--p", "2", "--weight", "0,0,0,0,0"],
                     tmp_path)
    assert code == 0
    assert data == (b'{"dim":1,"n":5,"p":2,"schema":"zipcone/1",'
                    b'"weight":[0,0,0,0,0]}\n')
    code, data = run(["verify-section", "--name", "delta2", "--n", "5",
                      "--p", "2"], tmp_path)
    assert code == 0
    assert data == (
        b'{"body":{"p":2,"terms":[{"coef":1,"exps":{"a_1_4":1,"a_2_5":1}},'
        b'{"coef":1,"exps":{"a_1_5":1,"a_2_4":1}}]},"n":5,"name":"delta2",'
        b'"p":2,"schema":"zipcone/1","verified":true,"weight":[1,1,0,-2,-2]}\n')


def _run_process(argv):
    """Run the CLI in a fresh interpreter; returns (exit code, stderr)."""
    src = str(Path(zipcones.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "zipcones.cli"] + argv,
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stderr


def test_unwritable_out_is_a_usage_error(tmp_path):
    code, err = _run_process(["h0", "--n", "2", "--p", "2", "--weight", "0,0",
                              "--out", str(tmp_path / "missing" / "x")])
    assert code == 1 and "Traceback" not in err
    assert err.startswith("usage error: cannot write --out")


def test_hw_generators_past_the_digit_limit_exit_2_in_a_fresh_process():
    # [249, 125]_2 has more than 4300 digits; the Gaussian binomials are one
    # running product and the output is checked before any integer is
    # printed, so the refusal takes a fraction of a second, not seconds
    code, err = _run_process(["cone", "--name", "hw", "--n", "250", "--p",
                              "2", "--emit", "generators"])
    assert code == 2 and err.count("\n") == 1
    assert err.startswith("guard error: an output integer has more than")


def test_vlambda_rank3_p3(tmp_path):
    # |GL_3(F_3)| = 11232 is past the element-list guard, but the
    # invariants need only the word certificate of the generators
    code, data = run(["vlambda", "--n", "3", "--p", "3", "--weight", "2,0,-2"],
                     tmp_path)
    assert code == 0
    doc = json.loads(data)
    assert (doc["dim"], doc["dim_invariants"]) == (27, 0)


def test_vlambda_rank3_p5(tmp_path):
    # |GL_3(F_5)| = 1488000: the generators are certified by words, so
    # no guard on the group order applies
    code, data = run(["vlambda", "--n", "3", "--p", "5", "--weight", "2,0,-2"],
                     tmp_path)
    assert code == 0
    doc = json.loads(data)
    assert (doc["dim"], doc["dim_invariants"]) == (27, 0)


def test_rank_5_saturated_cone_verbs():
    # sweep dualises sigma1 at n=5; slice refuses a rank-5 cone before
    # it dualises
    code, err = _run_process(["sweep", "--n", "5", "--p", "2", "--box",
                              "0..0", "--compare", "sigma1"])
    assert code == 0 and "Traceback" not in err
    code, err = _run_process(["slice", "--cone", "pol", "--n", "5",
                              "--p", "2"])
    assert code == 1 and "Traceback" not in err
    assert err == "usage error: slice needs a rank-3 cone\n"


def test_h0_at_rank_500_answers_without_a_traceback(tmp_path):
    # one recursion per coordinate would pass the interpreter's limit here
    zero = ",".join(["0"] * 500)
    out = tmp_path / "h0.json"
    code, err = _run_process(["h0", "--n", "500", "--p", "2", "--weight",
                              zero, "--out", str(out)])
    assert code == 0 and "Traceback" not in err
    assert json.loads(out.read_bytes())["dim"] == 1


class _Expired(BaseException):
    """Raised by the alarm; no handler in the package catches it."""


def _fuzz_argv(rng):
    # n in -1..7 (at most 5 for gamma and vlambda), or one of 1600, 20000
    # and 10^6 for gamma, verify-section and vlambda, past the minor and the
    # packed-width guards, or 600 for cone, past the entry guard; p prime up
    # to 13 or not prime, weights of the right and of a wrong rank in
    # [-12, 6] (constant past rank 7), empty, reversed and narrow boxes,
    # catalog names and an unknown one
    verb = rng.choice(["cone", "rootdata", "verify-section", "gamma", "h0",
                       "vlambda", "sweep", "slice"])
    if verb in ("gamma", "verify-section", "vlambda") and rng.random() < 0.25:
        n = rng.choice([1600, 20000, 10 ** 6])
    elif verb == "cone" and rng.random() < 0.25:
        n = 600
    else:
        n = rng.randint(-1, 5 if verb in ("gamma", "vlambda") else 7)
    p = rng.choice([2, 3, 5, 7, 11, 13, 0, 1, 4, 10 ** 30])
    rank = max(n if rng.random() < 0.75 else rng.randint(1, 8), 1)
    if rank > 7:
        weight = ",".join([str(rng.randint(-12, 6))] * rank)
    else:
        weight = ",".join(str(rng.randint(-12, 6)) for _ in range(rank))
    lo = rng.randint(-12, 6)
    box = rng.choice(["%d..%d" % (lo, lo + rng.randint(0, 2)),
                      "%d..%d" % (lo, lo - 1), "", ".."])
    name = rng.choice(catalog_names() + ["nope"])
    section = rng.choice(["delta1", "delta%d" % n, "hasse", "alphasp4",
                          "f1sp6", "thetasp6", "nope"])
    argv = [verb] + {
        "cone": ["--name", name, "--emit",
                 rng.choice(["generators", "halfspaces"])],
        "verify-section": ["--name", section],
        "h0": ["--weight", weight],
        "vlambda": ["--weight", weight],
        "sweep": ["--box", box, "--compare", name],
        "slice": ["--cone", name],
    }.get(verb, [])
    if verb not in ("cone", "verify-section", "slice") or rng.random() < 0.8:
        argv += ["--n", str(n)]
    if verb != "rootdata":
        argv += ["--p", str(p)]
    return argv


def _fuzz_draws():
    rng = random.Random(2018)
    return [_fuzz_argv(rng) for _ in range(600)]


def test_seeded_fuzz_of_every_verb_exits_cleanly(capsys):
    # every call answers or refuses with a documented exit code, within
    # the alarm, and prints no document when it refuses
    def expire(signum, frame):
        raise _Expired

    previous = signal.signal(signal.SIGALRM, expire)
    try:
        for argv in _fuzz_draws():
            signal.alarm(5)
            try:
                code = main(argv)
            except BaseException as e:
                pytest.fail("%r escaped from %s" % (e, argv))
            finally:
                signal.alarm(0)
            out, _ = capsys.readouterr()
            assert code in (0, 1, 2, 3), argv
            assert code == 0 or out == "", argv
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_every_verb_has_its_recorded_help():
    help_texts = json.loads(
        (Path(__file__).parent / "cli_help.json").read_text())
    assert set(cli.VERBS) == set(help_texts) - {""}


def _parsed(parser, argv):
    try:
        return parser.parse_args(argv)
    except cli._UsageError as e:
        return "usage error: %s" % e


def test_one_verb_parser_parses_as_the_full_parser():
    # main builds only the called verb's parser; on every recorded job and
    # every fuzz draw it gives the namespace, or the usage error, of all
    expected = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                           / "expected.json").read_text())
    recorded = [job["argv"] for domains in expected["workloads"].values()
                for jobs in domains.values() for job in jobs]
    full = cli.build_parser()
    for argv in recorded + _fuzz_draws():
        argv = cli._merge_negative_values(list(argv))
        assert (_parsed(cli.build_parser(argv[:1]), argv)
                == _parsed(full, argv)), argv[:6]

"""Batch command line front end.

Every verb prints a canonical JSON document (or CSV for ``slice``) and is
byte-for-byte deterministic for a fixed invocation.  Exit codes: 0 on
success, 1 on usage errors, 2 on guard errors, 3 on theorem-violation
errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    EmptyModuleError,
    GuardExceededError,
    TheoremViolationError,
    ZipconeError,
)
from .weights import MONOMIAL_CAP, Weight, is_prime

# Each verb imports the layers it runs when it runs, so a job compiles
# only those; tests/test_imports.py checks which modules each verb loads.

SCHEMA = "zipcone/1"
# the most weights one sweep answers; the count is checked before any is
# built
SWEEP_POINT_GUARD = 10 ** 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_CONE_NAMES = "one of the catalog cone names"


class _HelpFormatter(argparse.HelpFormatter):
    """Lists the catalog cone names in ``cone --help``; the catalog is
    imported only when that help is printed."""

    def _get_help_string(self, action):
        if action.help is _CONE_NAMES:
            from .catalog import catalog_names
            return "one of: %s" % ", ".join(catalog_names())
        return action.help


def _emit(args, text):
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise _UsageError("cannot write --out %s: %s"
                              % (args.out, e.strerror or e))
    else:
        sys.stdout.write(text)


def _json(doc):
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    except ValueError:
        # Python prints no integer of more than sys.get_int_max_str_digits()
        raise GuardExceededError(
            "an output integer has more than %d digits, the limit for "
            "printing one" % sys.get_int_max_str_digits())


def _parse_weight(text):
    try:
        return Weight(int(x) for x in text.split(","))
    except ValueError:
        raise _UsageError("weight must be a comma-separated integer vector")


def _parse_box(text):
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise _UsageError("box must look like -8..8")
    if lo > hi:
        raise _UsageError("empty box")
    return lo, hi


def _cmd_cone(args):
    from .catalog import catalog_cone

    cone = catalog_cone(args.name, args.n, args.p)
    pres = cone.presentation(args.emit)
    doc = {"schema": SCHEMA, "name": cone.name}
    doc.update(pres.to_json_dict())
    _emit(args, _json(doc))


def _cmd_rootdata(args):
    from .rootdata import SymplecticRootDatum

    d = SymplecticRootDatum(args.n)
    doc = {
        "schema": SCHEMA,
        "n": d.n,
        "simple_roots": [list(r) for r in d.simple_roots],
        "simple_coroots": [list(c) for c in d.simple_coroots],
        "levi_indices": list(d.levi_indices),
        "beta_index": d.beta_index,
        "positive_roots": [list(r) for r in d.positive_roots],
        "positive_coroots": [list(c) for c in d.positive_coroots],
    }
    _emit(args, _json(doc))


def _cmd_verify_section(args):
    from .sections import catalog_section

    s = catalog_section(args.name, args.n, args.p)
    doc = {"schema": SCHEMA, "name": s.name, "n": s.n, "p": s.p,
           "weight": list(s.weight), "verified": True,
           "body": s.body.to_json_dict()}
    _emit(args, _json(doc))


def _cmd_gamma(args):
    from .sections import gamma_matrix

    def fraction(num, exps):
        return {"num": num.to_json_dict(),
                "den": {str(i): k for i, k in enumerate(exps, start=1) if k}}

    z, gamma = gamma_matrix(args.n, args.p)
    doc = {"schema": SCHEMA, "n": args.n, "p": args.p,
           "z": [[fraction(*e) for e in row] for row in z],
           "gamma": [[fraction(*e) for e in row] for row in gamma]}
    _emit(args, _json(doc))


def _cmd_h0(args):
    from .oracle import h0_dimension

    lam = _parse_weight(args.weight)
    dim = h0_dimension(lam, args.n, args.p, monomial_cap=args.monomial_cap)
    doc = {"schema": SCHEMA, "n": args.n, "p": args.p,
           "weight": list(lam), "dim": dim}
    _emit(args, _json(doc))


def _cmd_vlambda(args):
    from .modules import (
        build_module,
        intersection_dimension,
        invariants_finite_group,
        subspace_leq0,
    )

    lam = _parse_weight(args.weight)
    try:
        module = build_module(lam, args.n, args.p)
    except EmptyModuleError:
        doc = {"schema": SCHEMA, "n": args.n, "p": args.p,
               "weight": list(lam), "dim": 0, "dim_leq0": 0,
               "dim_invariants": 0, "dim_intersection": 0}
        _emit(args, _json(doc))
        return
    fixed = invariants_finite_group(module)
    doc = {"schema": SCHEMA, "n": args.n, "p": args.p, "weight": list(lam),
           "dim": module.dim,
           "dim_leq0": len(subspace_leq0(module)),
           "dim_invariants": len(fixed),
           "dim_intersection": intersection_dimension(module, fixed)}
    _emit(args, _json(doc))


def _member(cone, lam):
    from .cones import monoid_membership

    if cone.monoid:
        # the search always decides; a monoid with a line raises
        # NotPointedError (exit 1)
        return monoid_membership(cone.generated, lam) is not None
    return cone.presentation("halfspaces").contains(lam)


def _cmd_sweep(args):
    import itertools

    from .catalog import catalog_cone
    from .oracle import h0_dimension

    lo, hi = _parse_box(args.box)
    count = (hi - lo + 1) ** args.n
    if count > SWEEP_POINT_GUARD:
        raise GuardExceededError("sweep box has %d points, more than the "
                                 "limit %d" % (count, SWEEP_POINT_GUARD))
    cone = catalog_cone(args.compare, args.n, args.p)
    if cone.rank != args.n:
        raise _UsageError("cone rank does not match --n")
    rows = []
    for pt in itertools.product(range(lo, hi + 1), repeat=args.n):
        lam = Weight(pt)
        dim = h0_dimension(lam, args.n, args.p,
                           monomial_cap=args.monomial_cap)
        member = _member(cone, lam)
        rows.append({"weight": list(lam), "oracle_dim": dim,
                     "catalog_member": member,
                     "agree": (dim > 0) == member})
    doc = {"schema": SCHEMA, "n": args.n, "p": args.p, "box": [lo, hi],
           "compare": cone.name, "rows": rows}
    _emit(args, _json(doc))


def _fr(x):
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (
        x.numerator, x.denominator)


def _cmd_slice(args):
    import functools
    from fractions import Fraction

    from .catalog import catalog_cone
    from .cones import extreme_rays, halfspaces_of

    cone = catalog_cone(args.cone, args.n, args.p)
    if cone.rank != 3:
        raise _UsageError("slice needs a rank-3 cone")
    pres = cone.halfspaces
    if pres is None:
        pres = halfspaces_of(cone.generated)
    center = Weight([1 - args.p] * 3)
    u = _parse_weight(args.frame_u)
    v = _parse_weight(args.frame_v)
    if len(u) != 3 or len(v) != 3:
        raise _UsageError("frame vectors must have 3 coordinates")
    if center.dot(u) != 0 or center.dot(v) != 0:
        raise _UsageError("frame vectors must be orthogonal to the axis")
    if not any(u[i] * v[i - 1] - u[i - 1] * v[i] for i in range(3)):
        raise _UsageError("frame vectors must be nonzero and not parallel")
    rays = extreme_rays(pres)
    c2 = center.dot(center)
    verts = []
    for r in rays:
        rw = Weight(r)
        h = center.dot(rw)
        if h <= 0:
            raise _UsageError(
                "ray %s does not cross the slice plane" % (tuple(r),))
        scale = Fraction(c2, h)
        q = [scale * x - c for x, c in zip(rw, center)]
        uc = Fraction(sum(a * b for a, b in zip(q, u)), u.dot(u))
        vc = Fraction(sum(a * b for a, b in zip(q, v)), v.dot(v))
        verts.append((uc, vc, "(%s)" % ",".join(str(x) for x in rw)))

    def angle_cmp(a, b):
        # counter-clockwise order around the origin, exact
        (xa, ya, _), (xb, yb, _) = a, b
        qa = _quadrant(xa, ya)
        qb = _quadrant(xb, yb)
        if qa != qb:
            return -1 if qa < qb else 1
        cross = xa * yb - ya * xb
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    verts.sort(key=functools.cmp_to_key(angle_cmp))
    lines = ["u,v,label"]
    for uc, vc, label in verts:
        lines.append("%s,%s,%s" % (_fr(uc), _fr(vc), label))
    _emit(args, "\n".join(lines) + "\n")


def _quadrant(x, y):
    if x > 0 and y >= 0:
        return 0
    if x <= 0 and y > 0:
        return 1
    if x < 0 and y <= 0:
        return 2
    return 3


def build_parser():
    parser = _Parser(prog="zipcone", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn):
        p = sub.add_parser(name, formatter_class=_HelpFormatter)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None)
        return p

    p = add("cone", _cmd_cone)
    p.add_argument("--name", required=True, help=_CONE_NAMES)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--emit", choices=["generators", "halfspaces"],
                   default="generators")

    p = add("rootdata", _cmd_rootdata)
    p.add_argument("--n", type=int, required=True)

    p = add("verify-section", _cmd_verify_section)
    p.add_argument("--name", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=int, required=True)

    p = add("gamma", _cmd_gamma)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)

    p = add("h0", _cmd_h0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--monomial-cap", type=int, default=MONOMIAL_CAP)

    p = add("vlambda", _cmd_vlambda)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--weight", required=True)

    p = add("sweep", _cmd_sweep)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--box", default="-8..8")
    p.add_argument("--compare", required=True)
    p.add_argument("--monomial-cap", type=int, default=MONOMIAL_CAP)

    p = add("slice", _cmd_slice)
    p.add_argument("--cone", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--frame-u", default="1,-1,0")
    p.add_argument("--frame-v", default="1,1,-2")

    return parser


_VALUE_FLAGS = ("--box", "--weight", "--frame-u", "--frame-v")


def _merge_negative_values(argv):
    """Let values like ``--box -8..8`` through argparse by joining them."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in _VALUE_FLAGS and i + 1 < len(argv)
                and argv[i + 1].startswith("-") and len(argv[i + 1]) > 1
                and argv[i + 1][1].isdigit()):
            out.append("%s=%s" % (tok, argv[i + 1]))
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
        if getattr(args, "p", None) is not None and not is_prime(args.p):
            raise _UsageError("p must be prime")
        if getattr(args, "n", None) is not None and args.n < 1:
            raise _UsageError("n must be at least 1")
        if (getattr(args, "monomial_cap", None) or 0) < 0:
            raise _UsageError("monomial cap must be at least 0")
        args.fn(args)
        return 0
    except _UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 1
    except GuardExceededError as e:
        print("guard error: %s" % e, file=sys.stderr)
        return 2
    except TheoremViolationError as e:
        print("theorem violation: %s" % e, file=sys.stderr)
        return 3
    except ZipconeError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Batch command line front end.

Every verb prints a canonical JSON document (or CSV for ``slice``) and is
byte-for-byte deterministic for a fixed invocation.  Exit codes: 0 on
success, 1 on usage errors, 2 on guard errors, 3 on theorem-violation
errors.
"""

import argparse
import json
import sys
from math import log10

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
# the most digits the output integers of one document have in all, counted
# as an upper bound (log10(2) per bit plus one per integer) before json
# prints any: cone --name hw --n 140 --p 2 --emit generators has 19.0 M and
# prints in 0.34 s, at n = 200 it would be 79.5 M digits in 2.8 s
OUTPUT_DIGIT_GUARD = 2 * 10 ** 7


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


def _sizes(doc):
    """(largest magnitude, at most how many digits) of the integers of each
    container of ``doc``, and of each integer outside one: a d-bit integer
    has at most d log10(2) + 1 digits."""
    stack = [doc]
    while stack:
        item = stack.pop()
        if isinstance(item, (dict, list, tuple)):
            items = item.values() if isinstance(item, dict) else item
            try:  # C speed over a container of integers
                yield (max(map(abs, items), default=0),
                       sum(map(int.bit_length, items)) * log10(2) + len(items))
            except TypeError:
                stack.extend(items)
        elif isinstance(item, int):
            yield abs(item), item.bit_length() * log10(2) + 1


def _json(doc):
    # Python prints no integer of more than sys.get_int_max_str_digits()
    # digits (0: no limit); find one, then count the digits of all, before
    # json spends seconds on them
    sizes = list(_sizes(doc))
    digits = sys.get_int_max_str_digits()
    if digits and max((m for m, _ in sizes), default=0) >= 10 ** digits:
        raise GuardExceededError(
            "an output integer has more than %d digits, the limit for "
            "printing one" % digits)
    total = int(sum(bound for _, bound in sizes))
    if total > OUTPUT_DIGIT_GUARD:
        raise GuardExceededError(
            "the output integers have up to %d digits, more than the limit "
            "%d (OUTPUT_DIGIT_GUARD)" % (total, OUTPUT_DIGIT_GUARD))
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


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
    return {"name": cone.name, **cone.presentation(args.emit).to_json_dict()}


def _cmd_rootdata(args):
    from .rootdata import SymplecticRootDatum

    return vars(SymplecticRootDatum(args.n))


def _cmd_verify_section(args):
    from .sections import catalog_section

    s = catalog_section(args.name, args.n, args.p)
    return {"name": s.name, "n": s.n, "p": s.p, "weight": list(s.weight),
            "verified": True, "body": s.body.to_json_dict()}


def _cmd_gamma(args):
    from .sections import gamma_matrix

    def fraction(num, exps):
        return {"num": num.to_json_dict(),
                "den": {str(i): k for i, k in enumerate(exps, start=1) if k}}

    z, gamma = gamma_matrix(args.n, args.p)
    return {"n": args.n, "p": args.p,
            "z": [[fraction(*e) for e in row] for row in z],
            "gamma": [[fraction(*e) for e in row] for row in gamma]}


def _cmd_h0(args):
    from .oracle import h0_dimension

    lam = _parse_weight(args.weight)
    dim = h0_dimension(lam, args.n, args.p, monomial_cap=args.monomial_cap)
    return {"n": args.n, "p": args.p, "weight": list(lam), "dim": dim}


def _cmd_vlambda(args):
    from .modules import (
        build_module,
        intersection_dimension,
        invariants_finite_group,
        subspace_leq0,
    )

    lam = _parse_weight(args.weight)
    doc = {"n": args.n, "p": args.p, "weight": list(lam)}
    try:
        module = build_module(lam, args.n, args.p)
    except EmptyModuleError:
        doc.update(dim=0, dim_leq0=0, dim_invariants=0, dim_intersection=0)
    else:
        fixed = invariants_finite_group(module)
        doc.update(dim=module.dim,
                   dim_leq0=len(subspace_leq0(module)),
                   dim_invariants=len(fixed),
                   dim_intersection=intersection_dimension(module, fixed))
    return doc


def _cmd_sweep(args):
    import itertools

    from .catalog import catalog_cone
    from .oracle import h0_dimension

    lo, hi = _parse_box(args.box)
    count = (hi - lo + 1) ** args.n
    if count > SWEEP_POINT_GUARD:
        raise GuardExceededError("sweep box has %d points, more than the "
                                 "limit %d" % (count, SWEEP_POINT_GUARD))
    # catalog_cone builds rank n, or refuses a cone of another fixed rank
    cone = catalog_cone(args.compare, args.n, args.p)
    rows = []
    for pt in itertools.product(range(lo, hi + 1), repeat=args.n):
        lam = Weight(pt)
        dim = h0_dimension(lam, args.n, args.p,
                           monomial_cap=args.monomial_cap)
        member = cone.contains(lam)
        rows.append({"weight": list(lam), "oracle_dim": dim,
                     "catalog_member": member,
                     "agree": (dim > 0) == member})
    return {"n": args.n, "p": args.p, "box": [lo, hi],
            "compare": cone.name, "rows": rows}


def _cmd_slice(args):
    """The plane through c (1, 1, 1), c = 1 - p, orthogonal to it, cuts
    the ray r at (3c^2 / h) r, h = <c (1, 1, 1), r> > 0.  In the frame
    u = (1, -1, 0), v = (1, 1, -2), both orthogonal to the axis, that point
    minus the centre has coordinates (c^2 x / 2h, c^2 y / 2h) with the
    integers x = 3(r_1 - r_2) and y = r_1 + r_2 - 2 r_3; c^2 / 2h > 0, so
    the vertices are sorted by the angle of (x, y)."""
    import functools
    from math import gcd

    from .catalog import catalog_cone
    from .cones import extreme_rays

    cone = catalog_cone(args.cone, args.n, args.p)
    if cone.rank != 3:
        raise _UsageError("slice needs a rank-3 cone")
    c = 1 - args.p
    verts = []
    for r in extreme_rays(cone.saturation()):
        h = c * sum(r)
        if h <= 0:
            raise _UsageError(
                "ray %s does not cross the slice plane" % (tuple(r),))
        verts.append((3 * (r[0] - r[1]), r[0] + r[1] - 2 * r[2], h,
                      "(%s)" % ",".join(str(x) for x in r)))

    def angle_cmp(a, b):
        # counter-clockwise order around the origin, exact
        (xa, ya, _, _), (xb, yb, _, _) = a, b
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

    def fraction(num, den):
        g = gcd(num, den)
        num, den = num // g, den // g
        return str(num) if den == 1 else "%d/%d" % (num, den)

    verts.sort(key=functools.cmp_to_key(angle_cmp))
    lines = ["u,v,label"]
    for x, y, h, label in verts:
        lines.append("%s,%s,%s" % (fraction(c * c * x, 2 * h),
                                   fraction(c * c * y, 2 * h), label))
    return "\n".join(lines) + "\n"


def _quadrant(x, y):
    if x > 0 and y >= 0:
        return 0
    if x <= 0 and y > 0:
        return 1
    if x < 0 and y <= 0:
        return 2
    return 3


# A verb is one row: its handler, which returns the document (``slice``
# its CSV text), and its flags after --out in the order --help lists them.
_N = ("--n", {"type": int, "required": True})
_N_OPTIONAL = ("--n", {"type": int, "default": None})
_P = ("--p", {"type": int, "required": True})
_WEIGHT = ("--weight", {"required": True})
_CAP = ("--monomial-cap", {"type": int, "default": MONOMIAL_CAP})

VERBS = {
    "cone": (_cmd_cone, [
        ("--name", {"required": True, "help": _CONE_NAMES}), _N_OPTIONAL,
        _P, ("--emit", {"choices": ["generators", "halfspaces"],
                        "default": "generators"})]),
    "rootdata": (_cmd_rootdata, [_N]),
    "verify-section": (_cmd_verify_section, [
        ("--name", {"required": True}), _N_OPTIONAL, _P]),
    "gamma": (_cmd_gamma, [_N, _P]),
    "h0": (_cmd_h0, [_N, _P, _WEIGHT, _CAP]),
    "vlambda": (_cmd_vlambda, [_N, _P, _WEIGHT]),
    "sweep": (_cmd_sweep, [_N, _P, ("--box", {"default": "-8..8"}),
                           ("--compare", {"required": True}), _CAP]),
    "slice": (_cmd_slice, [("--cone", {"required": True}), _N_OPTIONAL,
                           _P]),
}


def build_parser(names=VERBS):
    """The parser of the named verbs, by default every verb."""
    parser = _Parser(prog="zipcone", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        fn, options = VERBS[name]
        p = sub.add_parser(name, formatter_class=_HelpFormatter)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None)
        for flag, spec in options:
            p.add_argument(flag, **spec)
    return parser


_VALUE_FLAGS = ("--box", "--weight")


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
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    # a call builds only its verb's parser; any other argv (help, no verb,
    # an unknown verb) builds all of them, for the same text and error
    parser = build_parser(argv[:1] if argv and argv[0] in VERBS
                          else VERBS)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "p", None) is not None and not is_prime(args.p):
            raise _UsageError("p must be prime")
        if getattr(args, "n", None) is not None and args.n < 1:
            raise _UsageError("n must be at least 1")
        if (getattr(args, "monomial_cap", None) or 0) < 0:
            raise _UsageError("monomial cap must be at least 0")
        out = args.fn(args)
        if isinstance(out, dict):
            out = _json({"schema": SCHEMA, **out})
        _emit(args, out)
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

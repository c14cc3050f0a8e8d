"""Command-line front end: build algebras, run cohomology, verify suites.

Exit codes: 0 success (or all rows pass), 1 internal failure, 2 usage
error, 3 mathematical-consistency failure.  JSON output is byte-identical
across runs for the same job; rationals are emitted as (numerator,
denominator) pairs, never floats (the one exception is the heuristic
growth-rate estimate).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .algebras import (
    EVEN,
    LieSuperalgebra,
    SubalgebraSpan,
    build_gl,
    build_osp,
    build_p_tilde,
    build_q,
    special_linear_span,
)
from .cohomology import CohomologyReport, cohomology
from .errors import (
    ConventionError,
    DimensionMismatch,
    EmptyAlgebra,
    FormError,
    NotASubalgebra,
    SuperoError,
    UnsupportedModule,
    UnsupportedRank,
    UnsupportedSubalgebra,
)
from .linalg import Scalar, _exact
from .reps import Representation, adjoint, dual, natural, super_monomial_count, tensor, trivial
from .roots import named_subalgebra
from .suites import SUITES, run_suite

USAGE_ERRORS = (
    EmptyAlgebra,
    UnsupportedRank,
    FormError,
    UnsupportedSubalgebra,
    UnsupportedModule,
    DimensionMismatch,
)


# Coordinates of the largest cochain space a ``coh`` request may reach.
# The largest request that CI and the tests run, ``coh gl 3 2 --sub g0
# -N 8``, reaches 167960; the README's ``coh q 3 --sub g0 --mod adjoint
# -N 6`` reaches 115830 and takes 0.52-0.78 s over 14 cold runs on a 2-vCPU
# Intel Xeon virtual machine with CPython 3.11.7, whose core speed swings up
# to about 1.9x.
COCHAIN_BUDGET = 200_000

# Monomial factors a ``coh`` report lists for p <= N + 1: 2.44M for
# ``coh gl 3 2 --sub g0 -N 8``, but 21.7M for gl(1|1) over g0 at N = 400,
# whose C^401 has only 402 coordinates.
LISTING_BUDGET = 5_000_000

# ``Fraction`` builds 10**e in full, so an ``--H`` exponent gets the digit
# limit of a plain integer; each ``--mod`` nesting level is one recursion.
MAX_EXPONENT = 4300
MAX_MODULE_DEPTH = 32


def largest_cochain_space(even: int, odd: int, top: int, dim_m: int) -> int:
    """Upper bound on the coordinates of C^p(g, h; M) for p <= top: the
    monomial count of L^p_s(g/h) times dim M, at its largest p.

    With odd quotient directions the count grows with p, so p = top is
    largest; without, it is C(even, p), largest at p = even // 2.
    """
    return dim_m * max(
        super_monomial_count(even, odd, p) for p in {top, min(top, even // 2)}
    )


def listed_factors(even: int, odd: int, top: int) -> int:
    """Factors of the monomials of L^p_s(g/h) for p <= top, summed until past
    ``LISTING_BUDGET`` or at the first degree with none (so is every later)."""
    total = 0
    for p in range(1, top + 1):
        count = super_monomial_count(even, odd, p)
        total += p * count
        if not count or total > LISTING_BUDGET:
            break
    return total


def build_family(family: str, params: list[int]) -> LieSuperalgebra:
    if family == "gl":
        if len(params) != 2:
            raise UnsupportedRank("gl needs two parameters: m n")
        return build_gl(*params)
    if family == "sl":
        if len(params) != 2:
            raise UnsupportedRank("sl needs two parameters: m n")
        m, n = params
        return special_linear_span(build_gl(m, n), m, n).to_algebra(f"sl({m}|{n})")
    if family == "q":
        if len(params) != 1:
            raise UnsupportedRank("q needs one parameter: n")
        return build_q(params[0])
    if family in ("p", "p_tilde"):
        if len(params) != 1:
            raise UnsupportedRank("p_tilde needs one parameter: n")
        return build_p_tilde(params[0])
    if family == "osp":
        if len(params) != 2:
            raise UnsupportedRank("osp needs two parameters: m two_n")
        return build_osp(*params)
    raise UnsupportedRank(f"unknown family {family!r} (choose gl, sl, q, p_tilde, osp)")


def parse_rationals(text: str) -> tuple[Scalar, ...]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        _, e, exponent = piece.lower().partition("e")
        try:
            if e and abs(int(exponent)) > MAX_EXPONENT:
                raise ValueError(exponent)
            out.append(_exact(Fraction(piece)))
        except (ValueError, ZeroDivisionError):
            raise UnsupportedSubalgebra(f"not a rational number: {piece!r}") from None
    return tuple(out)


def parse_module(g: LieSuperalgebra, spec: str, whole: str | None = None) -> Representation:
    """Module expressions: trivial | natural | adjoint | dual(E) | E*E.

    ``whole`` is the expression that ``spec`` is part of, quoted in the
    error when a part fails to parse."""
    spec = spec.strip()
    if whole is None:
        whole = spec
    depth, cuts = 0, [-1]
    for i, ch in enumerate(spec):
        if ch == "(":
            depth += 1
            if depth > MAX_MODULE_DEPTH:
                raise UnsupportedModule(f"module spec nests deeper than {MAX_MODULE_DEPTH} levels")
        elif ch == ")":
            depth -= 1
        elif ch == "*" and depth == 0:
            cuts.append(i)
    if len(cuts) > 1:
        cuts.append(len(spec))
        factors = [parse_module(g, spec[a + 1 : b], whole) for a, b in zip(cuts, cuts[1:])]
        # C^0 alone has dim M coordinates, so a larger M is over budget anyway;
        # refuse it before any product is built
        dim = math.prod(f.dim for f in factors)
        if dim > COCHAIN_BUDGET:
            raise DimensionMismatch(
                f"request too large: module {spec!r} has dimension {dim}, "
                f"over the budget of {COCHAIN_BUDGET}"
            )
        module = factors.pop()
        while factors:
            module = tensor(factors.pop(), module)
        return module
    if spec.startswith("dual(") and spec.endswith(")"):
        return dual(parse_module(g, spec[5:-1], whole))
    if spec == "trivial":
        return trivial(g)
    if spec == "natural":
        return natural(g)
    if spec == "adjoint":
        return adjoint(g)
    if spec == whole:
        raise UnsupportedModule(f"cannot parse module spec {spec!r}")
    raise UnsupportedModule(f"cannot parse {spec!r} in module spec {whole!r}")


def _ratio(num, den) -> Fraction:
    """num/den from a span file.  JSON ``true``/``false`` load as ``bool``,
    an ``int`` subclass that ``Fraction`` would take for 1 and 0."""
    if type(num) is not int or type(den) is not int:
        raise TypeError(f"{num!r}/{den!r} is not a ratio of integers")
    return Fraction(num, den)


def parse_subalgebra(g: LieSuperalgebra, spec: str, H: tuple[Scalar, ...] | None) -> SubalgebraSpan:
    if spec.startswith("span:"):
        path = spec[5:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            vectors = [tuple(_ratio(*entry) for entry in vec) for vec in data["vectors"]]
            label = data.get("label", "span")
        except (ValueError, TypeError, KeyError, AttributeError, ZeroDivisionError):
            raise UnsupportedSubalgebra(
                f'{path}: expected {{"vectors": [[[num, den], ...], ...]}}'
            ) from None
        # a line break would split the "# g  h=..." header of a table report
        if not isinstance(label, str) or "".join(label.splitlines()) != label:
            raise UnsupportedSubalgebra(f"{path}: label {label!r} is not a one-line string")
        # the file is outside input: a span that is no subalgebra is a usage error
        try:
            span = SubalgebraSpan(g, vectors, label)
        except NotASubalgebra as exc:
            raise UnsupportedSubalgebra(f"{path}: {exc}") from None
        witness = span.closure_witness()
        if witness is not None:
            raise UnsupportedSubalgebra(f"{path}: {label}: not closed at pair {witness}")
        return span
    return named_subalgebra(g, spec, H=H)


def emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def report_table(report: CohomologyReport) -> str:
    head = f"{'p':>3} {'dimC_even':>10} {'dimC_odd':>9} {'rank_d':>7} {'dimH_even':>10} {'dimH_odd':>9}"
    lines = [
        f"# {report.algebra}  h={report.subalgebra}  M={report.module}  N={report.max_degree}",
        head,
    ]
    for r in report.rows:
        lines.append(
            f"{r.degree:>3} {r.dim_cochains_even:>10} {r.dim_cochains_odd:>9} "
            f"{r.rank_differential:>7} {r.dim_cohomology_even:>10} {r.dim_cohomology_odd:>9}"
        )
    lines.append(f"# all differentials zero: {report.all_differentials_zero}")
    lines.append("# H dims: " + ",".join(str(r.dim_cohomology) for r in report.rows))
    return "\n".join(lines) + "\n"


def verify_table(report: dict) -> str:
    width = max((len(r["check"]) for r in report["rows"]), default=5)
    fam_w = max((len(r["family"]) for r in report["rows"]), default=6)
    lines = [f"# suite: {report['suite']}"]
    for r in report["rows"]:
        extra = f"  {r['witness']}" if "witness" in r else ""
        lines.append(
            f"{r['status'].upper():<4} {r['check']:<{width}} {r['family']:<{fam_w}} "
            f"{json.dumps(r['params'], sort_keys=True)}{extra}"
        )
    lines.append(f"# all_pass: {report['all_pass']}")
    return "\n".join(lines) + "\n"


def cmd_build(args) -> int:
    g = build_family(args.family, args.params)
    emit(dumps(g.to_json_dict()), args.out)
    return 0


def cmd_coh(args) -> int:
    if args.H is not None and args.sub not in ("levi", "borel"):
        raise UnsupportedSubalgebra(f"--H applies only to --sub levi or borel, not {args.sub!r}")
    g = build_family(args.family, args.params)
    H = parse_rationals(args.H) if args.H else None
    h = parse_subalgebra(g, args.sub, H)
    mod = parse_module(g, args.mod)
    quotient = [g.parities[i] for i in h.complement]
    even_quot = quotient.count(EVEN)
    if args.N is not None:
        max_degree = args.N
    else:
        # largest degree where mixed even/odd quotient directions still
        # contribute new monomials once
        max_degree = len(g.odd_indices) + even_quot
    if max_degree < 0:
        raise DimensionMismatch("N must be nonnegative")
    # the report builds C^0 .. C^N, and d^N's images live on the
    # coordinates of degree N + 1
    size = largest_cochain_space(even_quot, len(quotient) - even_quot, max_degree + 1, mod.dim)
    if size > COCHAIN_BUDGET:
        raise DimensionMismatch(
            f"request too large: C^p for p <= {max_degree + 1} may have {size} "
            f"coordinates, over the budget of {COCHAIN_BUDGET}"
        )
    if listed_factors(even_quot, len(quotient) - even_quot, max_degree + 1) > LISTING_BUDGET:
        raise DimensionMismatch(
            f"request too large: the monomials of degree p <= {max_degree + 1} "
            f"hold over {LISTING_BUDGET} factors, the listing budget"
        )
    report = cohomology(g, h, mod, max_degree)
    if args.format == "json":
        emit(dumps(report.to_json_dict()), args.out)
    else:
        emit(report_table(report), args.out)
    return 0


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        sys.stderr.write(
            f"unknown suite {args.suite!r}; available: {', '.join(sorted(SUITES))}\n"
        )
        return 2
    report = run_suite(args.suite)
    if args.format == "json":
        emit(dumps(report), args.out)
    else:
        emit(verify_table(report), args.out)
    return 0 if report["all_pass"] else 3


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supero",
        description="Exact Lie-superalgebra toolkit: construction, relative "
        "cochain cohomology, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct an algebra and emit its JSON")
    p_build.add_argument("family", help="gl | sl | q | p_tilde | osp")
    p_build.add_argument("params", nargs="*", type=int)
    p_build.add_argument("--out", default=None)
    p_build.set_defaults(func=cmd_build)

    p_coh = sub.add_parser("coh", help="relative cohomology report")
    p_coh.add_argument("family")
    p_coh.add_argument("params", nargs="*", type=int)
    p_coh.add_argument("--sub", default="g0", help="g0 | torus | full | borel | levi | span:FILE")
    p_coh.add_argument("--mod", default="trivial", help="trivial | natural | adjoint | dual(E) | E*E")
    p_coh.add_argument("-N", type=int, default=None, help="maximum degree (default: odd dim + even quotient dim)")
    p_coh.add_argument("--H", default=None, help="comma-separated rationals; only with --sub levi or borel")
    p_coh.add_argument("--format", choices=("table", "json"), default="table")
    p_coh.add_argument("--out", default=None)
    p_coh.set_defaults(func=cmd_coh)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", help=" | ".join(sorted(SUITES)))
    p_verify.add_argument("--format", choices=("table", "json"), default="table")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ConventionError as exc:
        sys.stderr.write(f"consistency error: {exc}\n")
        return 3
    except SuperoError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

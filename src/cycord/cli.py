"""Command line interface for quotient structure and coding studies."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import re
import sys

from .base_rings import one_hot
from .coding import (
    SEARCH_BUDGET,
    SEARCH_SAMPLES,
    FirstCoefficientCode,
    LiftStrategy,
    MonomialOffsetStudy,
    ParityCode,
    ReedSolomonCode,
    SumClosedStudy,
    delta_min_search,
    lift_codeword,
    run_lemma_trials,
)
from .errors import CycordError, SelfTestFailed, VerificationFailed
from .extension import IdealSpec, read_field
from .order import SHIPPED_ALGEBRAS, AlgebraSpec, load_algebra
from .residue import (
    CompositeIdeal,
    FiniteField,
    QuotientRing,
    ResidueRing,
    crt_decompose,
    crt_recombine,
    invert_unipotent,
    quotient_of,
    residue_ring,
)
from .structure import VerifyMode, identify_quotient, verify_isomorphism

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_COUNTEREXAMPLE = 2


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _resolve_algebra(source: str, u: str | None = None) -> AlgebraSpec:
    """Accept shipped names with or without a .json suffix, or file paths."""
    if source.endswith(".json") and not os.path.exists(source):
        stem = os.path.basename(source)[:-5]
        if stem in SHIPPED_ALGEBRAS:
            source = stem
    try:
        return load_algebra(source, u)
    except ValueError as exc:  # a malformed or zero u
        raise CycordError(str(exc)) from exc


_FACTOR_RE = re.compile(r"\((?P<gen>[^()]+)\)(?:\^(?P<exp>\d+))?$")


def parse_ideal(base, text: str):
    """Parse '1+i', '(1+i)^2', or a comma list of prime-power factors."""
    factors = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise CycordError(f"empty ideal factor in {text!r}")
        m = _FACTOR_RE.fullmatch(part)
        try:
            if m:
                factors.append(IdealSpec(base.parse(m.group("gen")),
                                         int(m.group("exp") or 1)))
            else:
                factors.append(IdealSpec(base.parse(part)))
        except ValueError as exc:
            raise CycordError(str(exc)) from exc
    if len(factors) == 1:
        return factors[0]
    return CompositeIdeal(tuple(factors))


def _parse_coords(base, text: str) -> list:
    """Parse 'a0, a1, ...' into base-ring elements."""
    try:
        return [base.parse(c.strip()) for c in text.split(",")]
    except ValueError as exc:
        raise CycordError(str(exc)) from exc


def parse_element(algebra: AlgebraSpec, text: str):
    """Parse 'a0, a1; b0, b1' into an order element, one ; group per z power."""
    groups = [g.strip() for g in text.split(";")]
    if len(groups) != algebra.n:
        raise CycordError(
            f"expected {algebra.n} z-coefficients separated by ';', got {len(groups)}")
    zcoords = []
    for g in groups:
        coords = _parse_coords(algebra.ext.base, g)
        if len(coords) != algebra.ext.n:
            raise CycordError(
                f"each z-coefficient needs {algebra.ext.n} basis coordinates")
        zcoords.append(algebra.ext.element(coords))
    return algebra.element(zcoords)


def _emit(payload: dict, args, human_lines) -> None:
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, payload, human_lines)
# ---------------------------------------------------------------------------

def _cmd_describe(args):
    algebra = _resolve_algebra(args.algebra, args.u)
    ext = algebra.ext
    payload = {
        "name": algebra.name,
        "base_ring": ext.base.kind.value,
        "degree": algebra.n,
        "u": str(algebra.u),
        "claims_division": algebra.claims_division,
        "basis": list(ext.basis_names) if ext.basis_names else None,
        "min_poly": [str(c) for c in ext.min_poly] if ext.min_poly else None,
        "notes": algebra.notes,
    }
    lines = [
        f"algebra {algebra.name}",
        f"  base ring: {payload['base_ring']}",
        f"  degree n:  {algebra.n}",
        f"  u:         {algebra.u}",
        f"  division:  {algebra.claims_division}",
    ]
    if payload["basis"]:
        lines.append(f"  basis:     {', '.join(payload['basis'])}")
    if algebra.notes:
        lines.append(f"  notes:     {algebra.notes}")
    return EXIT_OK, payload, lines


def _cmd_reduce(args):
    algebra = _resolve_algebra(args.algebra, args.u)
    ideal = parse_ideal(algebra.ext.base, args.ideal)
    x = parse_element(algebra, args.element)
    if isinstance(ideal, CompositeIdeal):
        Q = quotient_of(algebra, ideal)
        xbar = Q.reduce(x)
        parts = crt_decompose(xbar)
        back = crt_recombine(parts, Q)
        if back != xbar:
            raise VerificationFailed(f"CRT recombination gives {back}, not {xbar}")
        payload = {
            "algebra": algebra.name,
            "ideal": str(ideal),
            "element": str(x),
            "residue": str(xbar),
            "components": [
                {"ideal": str(f), "residue": str(p)}
                for f, p in zip(ideal.factors, parts)
            ],
            "crt_round_trip": True,
        }
        lines = [f"{x} mod {ideal} = {xbar}"]
        for comp in payload["components"]:
            lines.append(f"  mod {comp['ideal']}: {comp['residue']}")
        lines.append("  crt round trip: ok")
        return EXIT_OK, payload, lines
    Q = quotient_of(algebra, ideal)
    xbar = Q.reduce(x)
    lift = Q.lift(xbar)
    payload = {
        "algebra": algebra.name,
        "ideal": str(ideal),
        "element": str(x),
        "residue": str(xbar),
        "canonical_lift": str(lift),
        "canonical_lift_coordinates": list(lift.flat_ints()),
    }
    lines = [f"{x} mod {ideal} = {xbar}", f"  canonical lift: {lift}"]
    return EXIT_OK, payload, lines


def _verification_dict(report) -> dict:
    out = dataclasses.asdict(report)
    out["mode"] = report.mode.value
    return out


def _cmd_structure(args):
    algebra = _resolve_algebra(args.algebra, args.u)
    ideal = parse_ideal(algebra.ext.base, args.ideal)
    if isinstance(ideal, CompositeIdeal):
        components = []
        lines = [f"composite ideal {ideal}: one report per prime power"]
        code = EXIT_OK
        for f in ideal.factors:
            rep = identify_quotient(algebra, f)
            d = rep.to_dict()
            if args.verify and rep.certificate is not None:
                code_f, extra = _verify(rep, args)
                d["verification"] = extra
                code = max(code, code_f)
            components.append(d)
            lines.append(f"  {f}: {d['case']} -> {d['target']}")
        payload = {
            "algebra": algebra.name,
            "ideal": str(ideal),
            "components": components,
        }
        return code, payload, lines
    report = identify_quotient(algebra, ideal)
    payload = report.to_dict()
    payload["algebra"] = algebra.name
    lines = [
        f"case: {payload['case']}",
        f"target: {payload['target']}",
        f"cardinality: {payload['cardinality']}",
        f"splitting: g={payload['g']}, f={payload['f']}",
    ]
    code = EXIT_OK
    if args.verify:
        if report.certificate is None:
            payload["verification"] = None
            lines.append("verification: no certificate for this case")
        else:
            code, extra = _verify(report, args)
            payload["verification"] = extra
            if extra.get("passed"):
                lines.append(
                    f"verification: passed ({extra['mode']}, "
                    f"{extra['pairs_checked']} pairs)")
            else:
                lines.append(
                    f"verification: FAILED on {extra['counterexample']}")
    return code, payload, lines


def _verify(report, args):
    mode = VerifyMode.SAMPLED if args.mode == "sampled" else VerifyMode.EXHAUSTIVE
    try:
        ver = verify_isomorphism(report.certificate, mode=mode, seed=args.seed)
    except VerificationFailed as exc:
        return EXIT_COUNTEREXAMPLE, {
            "passed": False,
            "counterexample": str(getattr(exc, "pair", None)),
            "message": str(exc),
        }
    return EXIT_OK, _verification_dict(ver)


def _cmd_ideals(args):
    algebra = _resolve_algebra(args.algebra, args.u)
    ideal = parse_ideal(algebra.ext.base, args.ideal)
    if isinstance(ideal, CompositeIdeal):
        raise CycordError("ideal lattices are reported per prime power")
    report = identify_quotient(algebra, ideal)
    lattice = report.to_dict()["ideal_lattice"]
    payload = {
        "algebra": algebra.name,
        "ideal": str(ideal),
        "case": report.case.value,
        "ideal_lattice": lattice,
    }
    lines = [f"{len(lattice)} two-sided ideals of the quotient ({report.case.value}):"]
    for entry in lattice:
        size = "?" if entry["size"] is None else entry["size"]
        lines.append(f"  {entry['label']}  (size {size})")
    return EXIT_OK, payload, lines


def _load_code_spec(path: str) -> dict:
    """The fields of a code-spec file, each checked and defaulted here once."""
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except ValueError as exc:  # bad JSON, or an integer too long to convert
            raise CycordError(f"code spec {path} is not valid JSON: {exc}") from exc
    try:
        if type(spec) is not dict:
            raise ValueError("a code spec must be a JSON object")
        ideal = read_field(spec, "ideal", dict, {})
        outer = read_field(spec, "outer", dict, {})
        fields = {
            "algebra_spec": read_field(spec, "algebra_spec", str),
            "u": read_field(spec, "u", str, None),
            "alpha": read_field(ideal, "alpha", str, "1+i"),
            "s": read_field(ideal, "s", int, 1, least=1),
            "monomial_power": read_field(ideal, "monomial_power", int, None, least=1),
            "kind": read_field(outer, "kind", str, "ParityOverRing"),
            "length": read_field(outer, "length", int, 3, least=2),
            "lift_strategy": LiftStrategy(read_field(spec, "lift_strategy", str, "CanonicalZero")),
            "box_bound": read_field(spec, "box_bound", int, 1, least=0),
            "seed": read_field(spec, "seed", int, None, least=0),
            "randomized": read_field(spec, "randomized", bool, False),
        }
        if fields["kind"] == "ReedSolomon":
            fields.update(p=read_field(outer, "p", int, least=2),
                          m=read_field(outer, "m", int, least=1),
                          dimension=read_field(outer, "dimension", int, least=1))
    except ValueError as exc:
        raise CycordError(f"code spec {path}: {exc}") from exc
    return fields


def _spec_parts(spec: dict):
    algebra = _resolve_algebra(spec["algebra_spec"], spec["u"])
    try:
        return algebra, IdealSpec(algebra.ext.base.parse(spec["alpha"]), spec["s"])
    except ValueError as exc:
        raise CycordError(str(exc)) from exc


def _outer_code(spec: dict, algebra, ideal):
    kind, length = spec["kind"], spec["length"]
    try:
        if kind == "ParityOverRing":
            if spec["monomial_power"] is not None:
                ring = residue_ring(algebra.ext, ideal.modulus)
            else:
                ring = quotient_of(algebra, ideal)
            return ParityCode(ring, length)
        if kind == "ReedSolomon":
            return ReedSolomonCode(FiniteField(spec["p"], spec["m"]), length, spec["dimension"])
        if kind == "FirstCoefficientScheme":
            Q = quotient_of(algebra, ideal)
            return FirstCoefficientCode(Q, ParityCode(Q.S, length))
    except ValueError as exc:  # a code the library refuses, such as dimension > length
        raise CycordError(str(exc)) from exc
    raise CycordError(f"unknown outer code kind {kind!r}")


def _cmd_encode(args):
    spec = _load_code_spec(args.code_spec)
    algebra, ideal = _spec_parts(spec)
    code = _outer_code(spec, algebra, ideal)
    try:
        message = json.loads(args.message)
    except json.JSONDecodeError as exc:
        raise CycordError(f"--message is not valid JSON: {exc}") from exc
    if not isinstance(message, list):
        raise CycordError("--message must be a JSON list of symbols")
    symbols = [_decode_symbol(code, algebra, m) for m in message]
    word = code.encode(symbols)
    payload = {
        "algebra": algebra.name,
        "ideal": str(ideal),
        "outer_kind": code.kind,
        "outer_codeword": [str(s) for s in word],
    }
    lines = [f"outer codeword: ({', '.join(str(s) for s in word)})"]
    if code.kind == "ReedSolomon":
        payload["components"] = None
        lines.append("Reed-Solomon symbols are abstract field elements; no lift")
        return EXIT_OK, payload, lines
    strategy = spec["lift_strategy"]
    lifted = lift_codeword(
        word, strategy, algebra=algebra,
        seed=args.seed if spec["seed"] is None else spec["seed"],
        box_bound=spec["box_bound"])
    payload["lift_strategy"] = strategy.value
    payload["components"] = [
        {"element": str(c), "coordinates": list(c.flat_ints())}
        for c in lifted.components
    ]
    payload["section_check"] = True
    lines.append(f"lift ({strategy.value}):")
    for c in lifted.components:
        lines.append(f"  {c}")
    return EXIT_OK, payload, lines


def _decode_symbol(code, algebra, m):
    """JSON message entry -> code symbol.

    Parity over a quotient ring: 'a0,a1;b0,b1' string (full element) or a
    flat string for the residue ring.  Reed-Solomon: integer field code.
    FirstCoefficientScheme: residue-ring string.
    """
    if isinstance(code, ReedSolomonCode):
        try:
            return code.ring.element(int(m))
        except (TypeError, ValueError) as exc:
            raise CycordError(f"bad field symbol {m!r}: {exc}") from exc
    if not isinstance(m, str):
        raise CycordError(f"message symbols must be strings, got {m!r}")
    if isinstance(code, ParityCode):
        ring = code.ring
        if isinstance(ring, QuotientRing):
            return ring.reduce(parse_element(algebra, m))
        if isinstance(ring, ResidueRing):
            return _parse_residue(ring, m)
        raise CycordError(f"cannot parse symbols for {type(ring).__name__}")
    if isinstance(code, FirstCoefficientCode):
        return _parse_residue(code.quotient.S, m)
    raise CycordError(f"cannot parse symbols for {type(code).__name__}")


def _parse_residue(S: ResidueRing, text: str):
    coords = _parse_coords(S.ext.base, text)
    if len(coords) != S.n:
        raise CycordError(f"residue symbols need {S.n} coordinates")
    return S.from_ok(S.ext.element(coords))


def _cmd_deltamin(args):
    spec = _load_code_spec(args.code_spec)
    algebra, ideal = _spec_parts(spec)
    if spec["kind"] != "ParityOverRing":
        raise CycordError("determinant searches support parity outer codes")
    length, box, power = spec["length"], spec["box_bound"], spec["monomial_power"]
    if power is not None:
        study = MonomialOffsetStudy(algebra, ideal, power=power,
                                    length=length, box_bound=box)
    else:
        study = SumClosedStudy(algebra, ideal, length=length, box_bound=box)
    seed = spec["seed"] if spec["randomized"] else None
    report = delta_min_search(study, budget=args.budget,
                              seed=seed, samples=args.samples)
    payload = report.to_dict()
    payload["algebra"] = algebra.name
    payload["ideal"] = str(ideal) if power is None else f"<z^{power}> over {ideal}"
    lines = [
        f"lower bound: {report.lower_bound} ({report.bound_formula.value})",
        f"search min:  {report.search_min}  over {report.evaluated} candidates",
        f"argmin:      {report.argmin}",
        f"notes:       {report.notes}",
    ]
    return EXIT_OK, payload, lines


def _cmd_check_lemma(args):
    summary = run_lemma_trials(args.trials, n=args.n, k=args.k, seed=args.seed)
    ok = summary["violations"] == 0 and summary["k1_equality_failures"] == 0
    passed = summary["trials"] - summary["violations"]
    lines = [
        f"{passed}/{summary['trials']} trials satisfied the determinant inequality",
        f"k=1 equality failures: {summary['k1_equality_failures']}",
    ]
    return (EXIT_OK if ok else EXIT_ERROR), summary, lines


# ---------------------------------------------------------------------------
# selftest property suites
# ---------------------------------------------------------------------------

def _random_order_element(algebra: AlgebraSpec, rng: random.Random, bound: int = 3):
    return algebra.from_draws(lambda: rng.randint(-bound, bound))


def _suite_embedding_law(rng) -> int:
    """M(x y) == M(y) M(x) exactly, across all shipped algebras."""
    checks = 0
    for name in sorted(SHIPPED_ALGEBRAS):
        algebra = load_algebra(name)
        for _ in range(200):
            x = _random_order_element(algebra, rng)
            y = _random_order_element(algebra, rng)
            if (x * y).matrix() != y.matrix() * x.matrix():
                raise SelfTestFailed(f"M(x*y) != M(y)*M(x) in {name} for x = {x}, y = {y}")
            checks += 1
    return checks


def _suite_crt_round_trip(rng) -> int:
    algebra = load_algebra("golden_u_i")
    base = algebra.ext.base
    ideal = CompositeIdeal((IdealSpec(base.parse("1+i"), 2),
                            IdealSpec(base.parse("2+i"))))
    Q = quotient_of(algebra, ideal)
    checks = 0
    for _ in range(500):
        x = Q.random_element(rng)
        parts = crt_decompose(x)
        if crt_recombine(parts, Q) != x:
            raise SelfTestFailed(f"CRT round trip fails at {x}")
        checks += 1
    return checks


def _suite_section(rng) -> int:
    algebra = load_algebra("golden_u_i")
    Q = quotient_of(algebra, IdealSpec(algebra.ext.base.parse("1+i")))
    checks = 0
    for _ in range(100):
        sym = Q.random_element(rng)
        if Q.reduce(Q.lift(sym)) != sym:
            raise SelfTestFailed(f"section fails at {sym}")
        checks += 1
    return checks


def _suite_unipotent_inverse(rng) -> int:
    """(1 + c z) is invertible in every shipped quotient with nilpotent u."""
    golden, gauss = load_algebra("golden_u_1pi"), load_algebra("gauss_over_Q", u="5")
    alpha = golden.ext.base.parse("1+i")
    cases = [(golden, IdealSpec(alpha)), (golden, IdealSpec(alpha, 2)),
             (gauss, IdealSpec(gauss.ext.base.parse("5")))]
    checks = 0
    for algebra, ideal in cases:
        Q = quotient_of(algebra, ideal)
        for c in Q.S.elements(Q.S.size):
            x = Q.one + Q.element(one_hot(Q.n, 1, c, Q.S.zero))
            inv = invert_unipotent(Q, x)
            if x * inv != Q.one or inv * x != Q.one:
                raise SelfTestFailed(f"{inv} is not a two-sided inverse of {x}")
            checks += 1
    return checks


def _suite_det_scaling(rng) -> int:
    """reduced_det(x * a) == a^n * reduced_det(x) for base scalars a."""
    checks = 0
    for name in sorted(SHIPPED_ALGEBRAS):
        algebra = load_algebra(name)
        base = algebra.ext.base
        rational = base.kind.name == "RATIONAL"
        for _ in range(40):
            x = _random_order_element(algebra, rng)
            a = base.element(rng.randint(-3, 3)) if rational else base.element(
                rng.randint(-3, 3), rng.randint(-3, 3))
            if (x * a).reduced_det() != a ** algebra.n * x.reduced_det():
                raise SelfTestFailed(f"det(x*a) != a^n det(x) in {name} for x = {x}, a = {a}")
            checks += 1
    return checks


_SELFTEST_SUITES = [
    ("embedding_law", _suite_embedding_law),
    ("crt_round_trip", _suite_crt_round_trip),
    ("canonical_section", _suite_section),
    ("unipotent_inverse", _suite_unipotent_inverse),
    ("det_scaling", _suite_det_scaling),
]


def _cmd_selftest(args):
    results = {}
    lines = []
    code = EXIT_OK
    for name, suite in _SELFTEST_SUITES:
        rng = random.Random(args.seed)
        try:
            checks = suite(rng)
            results[name] = {"checks": checks, "passed": True}
            lines.append(f"{name}: {checks} checks passed")
        except (AssertionError, SelfTestFailed) as exc:
            results[name] = {"checks": 0, "passed": False, "error": str(exc)}
            lines.append(f"{name}: FAILED ({exc})")
            code = EXIT_ERROR
    return code, {"suites": results}, lines


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_common(p) -> None:
    """Common flags, accepted before or after the subcommand."""
    p.add_argument("--output", choices=("human", "json"),
                   default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cycord",
                     description="natural orders of cyclic algebras: quotients, "
                                 "structure certificates, and coset codes")
    parser.add_argument("--output", choices=("human", "json"), default="human")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="summarize an algebra spec")
    p.add_argument("--algebra", required=True)
    p.add_argument("--u", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("reduce", help="reduce an element modulo an ideal")
    p.add_argument("--algebra", required=True)
    p.add_argument("--ideal", required=True)
    p.add_argument("--element", required=True,
                   help="'a0, a1; b0, b1' with one ';' group per z power")
    p.add_argument("--u", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("structure", help="classify a quotient and certify it")
    p.add_argument("--algebra", required=True)
    p.add_argument("--ideal", required=True)
    p.add_argument("--u", default=None)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--mode", choices=("exhaustive", "sampled"),
                   default="exhaustive")
    _add_common(p)
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser("ideals", help="list the two-sided ideals of a quotient")
    p.add_argument("--algebra", required=True)
    p.add_argument("--ideal", required=True)
    p.add_argument("--u", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_ideals)

    p = sub.add_parser("encode", help="encode a message and lift it")
    p.add_argument("--code-spec", required=True)
    p.add_argument("--message", required=True,
                   help="JSON list of symbols")
    _add_common(p)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("deltamin", help="bound and search the minimum "
                                        "Gram determinant of a coset code")
    p.add_argument("--code-spec", required=True)
    p.add_argument("--budget", type=int, default=SEARCH_BUDGET)
    p.add_argument("--samples", type=int, default=SEARCH_SAMPLES)
    _add_common(p)
    p.set_defaults(func=_cmd_deltamin)

    p = sub.add_parser("check-lemma", help="Monte Carlo determinant inequality")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_check_lemma)

    p = sub.add_parser("selftest", help="run the property suites")
    _add_common(p)
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:  # numpy's generators take no negative seed
            raise CycordError(f"--seed must be a non-negative integer, got {args.seed}")
        code, payload, lines = args.func(args)
    except (CycordError, OSError) as exc:
        if args.output == "json":
            print(json.dumps({"error": str(exc)}, sort_keys=True, indent=2))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _emit(payload, args, lines)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

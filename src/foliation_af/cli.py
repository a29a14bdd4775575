"""Command-line interface.

Subcommands wrap the library one-to-one and print deterministic documents:
JSON (with a schema version field ``"v": 1``), DOT for diagrams, or a plain
text rendering.  Exit codes: 0 success, 1 usage or parse error, 2 a result
was indeterminate at the working precision, 3 a proof was required
(--require-proof) but only horizon evidence was available.

Batch mode reads newline-delimited JSON objects ``{"argv": [...]}`` and
writes one result document per line, in input order.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .bratteli import (
    diagram_from_digits,
    export_dot,
    unique_trace_estimate,
)
from .contfrac import (
    InsufficientDepthError,
    Mat2Z,
    PoleError,
    cf_convergents,
    cf_expand,
    cf_tail_equivalent,
    mobius_apply,
)
from .jacobi_perron import (
    JPExpansion,
    effros_shen_divergent,
    jp_expand,
    jp_limit_check,
    perron_condition,
)
from .lattice import (
    PseudoLattice,
    functor_map,
    genus_dimension,
)
from .numeric import (
    IndeterminateError,
    NumberField,
    RootIsolationError,
    parse_scalar,
    scalar_to_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INDETERMINATE = 2
EXIT_UNPROVEN = 3

_ENV_PRECISION = "FOLIATION_AF_PRECISION"


@dataclass(frozen=True)
class RunConfig:
    precision: int = 128
    depth: int = 50
    tol: Fraction = Fraction(1, 10 ** 10)
    output: str = "json"

    def __post_init__(self):
        if self.precision < 8:
            raise ValueError("precision must be >= 8")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.output not in ("json", "dot", "text"):
            raise ValueError("output must be json, dot or text")


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _default_precision() -> int:
    raw = os.environ.get(_ENV_PRECISION)
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"{_ENV_PRECISION} must be an integer, got {raw!r}")
    return 128


_TERM_RE = re.compile(
    r"\s*([+-]?)\s*(?:(\d+)\s*\*?\s*)?(x)\s*(?:\^\s*(\d+))?\s*|\s*([+-]?)\s*(\d+)\s*")


def parse_polynomial(text: str) -> tuple:
    """Parse ``x^2-2`` style integer polynomials; coefficients low to high."""
    pos = 0
    terms = []
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial {text!r} at position {pos}")
        if m.group(3):
            sign = -1 if m.group(1) == "-" else 1
            coef = int(m.group(2)) if m.group(2) else 1
            exp = int(m.group(4)) if m.group(4) else 1
        else:
            sign = -1 if m.group(5) == "-" else 1
            coef = int(m.group(6))
            exp = 0
        terms.append((exp, sign * coef))
        pos = m.end()
    if not terms:
        raise ValueError(f"empty polynomial {text!r}")
    degree = max(e for e, _ in terms)
    coeffs = [0] * (degree + 1)
    for e, c in terms:
        coeffs[e] += c
    return tuple(coeffs)


def _field_from_args(args) -> Optional[NumberField]:
    poly = getattr(args, "poly", None)
    if poly is None:
        return None
    embed = getattr(args, "embed", None)
    if embed is None:
        raise ValueError("--poly requires --embed lo,hi")
    lo, hi = (Fraction(part.strip()) for part in embed.split(","))
    return NumberField(parse_polynomial(poly), (lo, hi))


def _scalar_from_token(token: str, field: Optional[NumberField] = None):
    token = token.strip()
    if token.startswith("{"):
        return parse_scalar(json.loads(token))
    if "," in token:
        if field is None:
            raise ValueError(
                f"coordinate list {token!r} needs --poly/--embed (or --field/--embed)")
        coords = [Fraction(part.strip()) for part in token.split(",")]
        return field.element(coords)
    return parse_scalar(token)


def _scalar_arg(args, field: Optional[NumberField]):
    if getattr(args, "value", None) is not None:
        return _scalar_from_token(args.value, field)
    if field is not None:
        coords = getattr(args, "coords", None)
        if coords:
            return field.element([Fraction(c.strip()) for c in coords.split(",")])
        return field.generator()
    raise ValueError("no scalar given: pass a value or --poly/--embed")


def _emit(doc: dict, config: RunConfig, out) -> None:
    if config.output == "text":
        _render_text(doc, out)
    else:
        json.dump(doc, out, sort_keys=True, indent=2)
        out.write("\n")


def _render_text(doc, out, prefix: str = "") -> None:
    if isinstance(doc, dict):
        for key in sorted(doc):
            value = doc[key]
            if isinstance(value, (dict, list)):
                out.write(f"{prefix}{key}:\n")
                _render_text(value, out, prefix + "  ")
            else:
                out.write(f"{prefix}{key}: {value}\n")
    elif isinstance(doc, list):
        for value in doc:
            if isinstance(value, (dict, list)):
                _render_text(value, out, prefix + "  ")
            else:
                out.write(f"{prefix}- {value}\n")
    else:
        out.write(f"{prefix}{doc}\n")


# ---------------------------------------------------------------------------
# subcommands


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        precision=args.precision,
        depth=args.depth,
        tol=Fraction(args.tol),
        output=args.output,
    )


def _cmd_cf(args, out) -> int:
    config = _config_from_args(args)
    field = _field_from_args(args)
    x = _scalar_arg(args, field)
    e = cf_expand(x, config.depth)
    convergents = [str(c) for c in cf_convergents(e, min(len(e.digits), config.depth))]
    doc = {
        "v": 1,
        "command": "cf",
        "input": scalar_to_json(x),
        "expansion": e.to_json_dict(),
        "convergents": convergents,
        "periodic": e.period is not None,
    }
    _emit(doc, config, out)
    return EXIT_OK


def _cmd_jp(args, out) -> int:
    config = _config_from_args(args)
    doc = {"v": 1, "command": "jp"}
    if args.digits_file:
        with open(args.digits_file, "r", encoding="utf-8") as fh:
            e = JPExpansion.from_json_dict(json.load(fh))
        doc["expansion"] = e.to_json_dict()
    else:
        if not args.theta:
            raise ValueError("pass theta components or --digits-file")
        field = _field_from_args(args)
        theta = tuple(_scalar_from_token(tok, field) for tok in args.theta)
        e = jp_expand(theta, config.depth)
        doc["input"] = [scalar_to_json(t) for t in theta]
        doc["expansion"] = e.to_json_dict()
        report = jp_limit_check(e, theta, depth=len(e.digits), tol=config.tol)
        doc["limit"] = report.to_json_dict()
    doc["admissible"] = e.admissible
    if args.check_perron is not None:
        doc["perron"] = perron_condition(e, Fraction(args.check_perron)).to_json_dict()
    if args.check_es_divergence:
        tail = Fraction(args.tail_bound) if args.tail_bound else None
        doc["es_divergence"] = effros_shen_divergent(e, tail).to_json_dict()
    _emit(doc, config, out)
    return EXIT_OK


def _digits_from_arg(text: str):
    digits = json.loads(text)
    if not isinstance(digits, list):
        raise ValueError("--digits must be a JSON list of digit vectors")
    return [[int(b) for b in d] for d in digits]


def _cmd_af_build(args, out) -> int:
    config = _config_from_args(args)
    digits = _digits_from_arg(args.digits)
    root = [int(v) for v in args.root.split(",")] if args.root else None
    d = diagram_from_digits(digits, n=args.n, root_edges=root)
    if args.dot or config.output == "dot":
        out.write(export_dot(d))
        return EXIT_OK
    doc = {"v": 1, "command": "af build", "diagram": d.to_json_dict()}
    _emit(doc, config, out)
    return EXIT_OK


def _cmd_af_trace(args, out) -> int:
    config = _config_from_args(args)
    digits = _digits_from_arg(args.digits)
    d = diagram_from_digits(digits, n=args.n)
    level = args.level if args.level is not None else d.levels
    report = unique_trace_estimate(d, level, config.precision)
    doc = {"v": 1, "command": "af trace", "trace": report.to_json_dict()}
    _emit(doc, config, out)
    return EXIT_OK


def _cmd_af_compare(args, out) -> int:
    config = _config_from_args(args)
    field = _field_from_args(args)
    if args.theta:
        x = _scalar_from_token(args.theta, field)
    elif field is not None:
        x = field.generator()
    else:
        raise ValueError("pass theta or --poly/--embed")
    if args.mobius:
        a, b, c, d = (int(v) for v in args.mobius.split(","))
        m = Mat2Z(a, b, c, d)
        y = mobius_apply(m, x)
    elif args.theta_prime:
        y = _scalar_from_token(args.theta_prime, field)
    else:
        raise ValueError("pass a second scalar or --mobius a,b,c,d")
    report = cf_tail_equivalent(x, y, depth=config.depth, max_offset=args.max_offset)
    doc = {"v": 1, "command": "af compare", "report": report.to_json_dict()}
    _emit(doc, config, out)
    if args.require_proof and not report.proven:
        return EXIT_UNPROVEN
    return EXIT_OK


def _cmd_af_functor(args, out) -> int:
    config = _config_from_args(args)
    field = None
    if args.field:
        if not args.embed:
            raise ValueError("--field requires --embed lo,hi")
        lo, hi = (Fraction(p.strip()) for p in args.embed.split(","))
        field = NumberField(parse_polynomial(args.field), (lo, hi))
    periods = tuple(_scalar_from_token(tok, field) for tok in args.lam)
    pl = PseudoLattice(periods)
    bundle = functor_map(pl, args.genus, depth=config.depth, tol=config.tol)
    if config.output == "dot":
        out.write(export_dot(bundle.diagram))
        return EXIT_OK
    doc = {"v": 1, "command": "af functor", "genus": args.genus,
           "n": genus_dimension(args.genus)}
    doc.update(bundle.to_json_dict())
    _emit(doc, config, out)
    return EXIT_OK


def _batch_argv(line: str) -> Optional[list]:
    """The argv list of one batch line, or None when the line is malformed."""
    try:
        req = json.loads(line)
    except json.JSONDecodeError:
        return None
    argv = req.get("argv") if isinstance(req, dict) else None
    if not isinstance(argv, list) or not all(isinstance(a, str) for a in argv):
        return None
    return argv


def _cmd_batch(args, out) -> int:
    if args.file and args.file != "-":
        fh = open(args.file, "r", encoding="utf-8")
    else:
        fh = sys.stdin
    try:
        lines = [(number, line) for number, line in enumerate(fh, start=1) if line.strip()]
    finally:
        if fh is not sys.stdin:
            fh.close()
    worst = EXIT_OK
    for number, line in lines:
        argv = _batch_argv(line)
        if argv is None:
            # a malformed line costs its own record, not the rest of the batch
            print(f"error: batch line {number}: expected a JSON object with an argv "
                  "list of strings", file=sys.stderr)
            code, payload = EXIT_USAGE, ""
        else:
            buf = io.StringIO()
            code = _run(argv, buf)
            payload = buf.getvalue()
            try:
                payload = json.loads(payload)
            except json.JSONDecodeError:
                pass
        out.write(json.dumps({"v": 1, "exit": code, "output": payload},
                             sort_keys=True))
        out.write("\n")
        worst = max(worst, code)
    return worst


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(p, precision_default, depth_default=50):
    p.add_argument("--precision", type=int, default=precision_default,
                   help="working bit count (default 128; env %s)" % _ENV_PRECISION)
    p.add_argument("--depth", type=int, default=depth_default,
                   help=f"expansion depth (default {depth_default})")
    p.add_argument("--tol", default="1/10000000000",
                   help="rational tolerance (default 1e-10)")
    p.add_argument("--output", choices=("json", "dot", "text"), default="json")


def build_parser() -> _Parser:
    precision_default = _default_precision()
    parser = _Parser(prog="foliation-af",
                     description="Exact continued fractions, Bratteli diagrams "
                                 "and dimension-group invariants.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_cf = sub.add_parser("cf",
                          help="regular continued fraction of one scalar")
    p_cf.add_argument("value", nargs="?", help="scalar: p/q or a JSON object")
    p_cf.add_argument("--poly", help="monic integer polynomial, e.g. x^2-2")
    p_cf.add_argument("--embed", help="root isolation interval lo,hi")
    p_cf.add_argument("--coords", help="coordinates in the --poly field")
    _add_common(p_cf, precision_default)
    p_cf.set_defaults(func=_cmd_cf)

    p_jp = sub.add_parser("jp",
                          help="Jacobi-Perron expansion of a vector")
    p_jp.add_argument("theta", nargs="*", help="theta components")
    p_jp.add_argument("--poly", help="ambient field polynomial")
    p_jp.add_argument("--embed", help="root isolation interval lo,hi")
    p_jp.add_argument("--digits-file", help="JSON file with a stored expansion")
    p_jp.add_argument("--check-perron", metavar="C",
                      help="test the sufficient convergence bound C")
    p_jp.add_argument("--check-es-divergence", action="store_true",
                      help="test the sum(1/beta_k) < 1 divergence pattern")
    p_jp.add_argument("--tail-bound", help="rational tail bound for the divergence test")
    _add_common(p_jp, precision_default)
    p_jp.set_defaults(func=_cmd_jp)

    p_af = sub.add_parser("af", help="diagram-level commands")
    af_sub = p_af.add_subparsers(dest="af_command", required=True,
                                 parser_class=_Parser)

    p_build = af_sub.add_parser("build",
                                help="build a diagram from explicit digits")
    p_build.add_argument("--digits", required=True,
                         help="JSON list of digit vectors, e.g. [[1,1],[1,1]]")
    p_build.add_argument("--n", type=int, help="vertices per level (inferred if omitted)")
    p_build.add_argument("--root", help="root edge multiplicities, comma separated")
    p_build.add_argument("--dot", action="store_true", help="emit DOT text")
    _add_common(p_build, precision_default)
    p_build.set_defaults(func=_cmd_af_build)

    p_trace = af_sub.add_parser("trace",
                                help="trace estimate of a diagram")
    p_trace.add_argument("--digits", required=True)
    p_trace.add_argument("--n", type=int)
    p_trace.add_argument("--level", type=int)
    _add_common(p_trace, precision_default)
    p_trace.set_defaults(func=_cmd_af_trace)

    p_cmp = af_sub.add_parser("compare",
                              help="tail equivalence of two scalars")
    p_cmp.add_argument("theta", nargs="?")
    p_cmp.add_argument("theta_prime", nargs="?")
    p_cmp.add_argument("--poly")
    p_cmp.add_argument("--embed")
    p_cmp.add_argument("--mobius", help="matrix entries a,b,c,d")
    p_cmp.add_argument("--max-offset", type=int, default=40)
    p_cmp.add_argument("--require-proof", action="store_true",
                       help="exit 3 unless the verdict is proven")
    _add_common(p_cmp, precision_default, depth_default=200)
    p_cmp.set_defaults(func=_cmd_af_compare)

    p_fun = af_sub.add_parser("functor",
                              help="period vector -> diagram bundle")
    p_fun.add_argument("--genus", type=int, required=True)
    p_fun.add_argument("--lambda", dest="lam", action="append", required=True,
                       metavar="VALUE", help="one period (repeatable)")
    p_fun.add_argument("--field", help="ambient field polynomial")
    p_fun.add_argument("--embed", help="root isolation interval lo,hi")
    _add_common(p_fun, precision_default)
    p_fun.set_defaults(func=_cmd_af_functor)

    p_batch = sub.add_parser("batch",
                             help="newline-delimited JSON requests")
    p_batch.add_argument("file", nargs="?", default="-")
    _add_common(p_batch, precision_default)
    p_batch.set_defaults(func=_cmd_batch)

    return parser


# Options whose value is a comma list that may start with a minus sign.
# argparse takes a token such as "-1,1,-3,2" for an option, so it is glued to
# its option as "--mobius=-1,1,-3,2" before parsing.
_LIST_OPTIONS = frozenset(("--mobius", "--embed", "--coords"))


def _glue_list_values(argv: Sequence[str]) -> list:
    out = []
    tokens = iter(argv)
    for tok in tokens:
        if tok in _LIST_OPTIONS:
            value = next(tokens, None)
            if value is not None and value[:1] == "-" and value[1:2].isdigit():
                out.append(f"{tok}={value}")
                continue
            out.append(tok)
            if value is not None:
                out.append(value)
        else:
            out.append(tok)
    return out


def _run(argv: Sequence[str], out) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(_glue_list_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args, out)
    except IndeterminateError as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except (ValueError, KeyError, OSError, ZeroDivisionError,
            json.JSONDecodeError, InsufficientDepthError, PoleError,
            RootIsolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: Optional[Sequence[str]] = None) -> int:
    code = _run(sys.argv[1:] if argv is None else argv, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())

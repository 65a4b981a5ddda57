"""Batch command-line front end.

Subcommands: resolve, graph, poincare, hilbert, multiplicity, verify.
Exit codes: 0 success, 2 validation error, 3 precision exhausted,
4 verification failure, 141 stdout closed before the output was written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str

from . import blowup, formulas, graph, jets
from .curves import Curve
from .errors import (
    InvalidInput, MotiveSeriesError, PrecisionExhausted, VerificationFailure, json_number,
)
from .polys import add, clean, pmul, power, scale

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PRECISION = 3
EXIT_VERIFY = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput("cannot read %s: %s" % (path, exc)) from exc


def _parse_vector(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InvalidInput("bad vector %r" % text) from exc


def _budget(text):
    """A budget option's value: an int >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("expected an integer >= 0, got %r" % text)
    return int(text)


# bounds on --poly expressions; each product is checked before it is formed
MAX_DEGREE = 100_000  # of any product, so of x^k too
MAX_PRODUCTS = 10**5  # coefficient products in one product of polynomials, in words (_times)
MAX_BITS = 1 << 14  # numerator and denominator bits of the two factors' coefficients


def _parse_poly(text):
    """Polynomial in x, y: either JSON terms or an expression like y^2-x^3."""
    text = text.strip()
    try:
        if not text.startswith("{"):
            return _expand(text)
        out = {}
        for t in json.loads(text)["terms"]:
            e = t["exp"]
            a, b = (json_number(x, "exponent") for x in e)
            if a < 0 or b < 0:
                raise ValueError("exponent %r is not two nonnegative integers" % (e,))
            out[(a, b)] = json_number(t["coeff"], "coeff", rational=True)
        return out
    except (ArithmeticError, LookupError, RecursionError, TypeError, ValueError) as exc:
        raise InvalidInput(
            "bad polynomial %r (%s: %s)" % (text, type(exc).__name__, exc)
        ) from exc


def _size(p):
    """(The most numerator plus denominator bits of a coefficient of p,
    the machine words of all its coefficients: one per 64 bits begun.)"""
    bits = [c.numerator.bit_length() + c.denominator.bit_length() for c in p.values()]
    return max(bits, default=0), sum(1 + b // 64 for b in bits)


def _times(p, q):
    """p * q by the polys kernel, refused before it is formed if it would
    pass MAX_DEGREE, MAX_BITS or MAX_PRODUCTS.

    Each term product is charged the words of its coefficient, w + w' - 1
    for factors of w and w' words, so one word when both fit in one."""
    deg = max(map(sum, p), default=0) + max(map(sum, q), default=0)
    (bits_p, words_p), (bits_q, words_q) = _size(p), _size(q)
    bits = bits_p + bits_q
    products = len(q) * words_p + len(p) * words_q - len(p) * len(q)
    if deg > MAX_DEGREE or bits > MAX_BITS or products > MAX_PRODUCTS:
        raise ValueError("product of degree %d, %d coefficient bits and %d words of term "
                         "products passes a bound" % (deg, bits, products))
    return pmul(p, q)


def _expand(text):
    """The exact polynomial {(a, b): Fraction} of an expression in x, y.

    Recursive descent over this grammar, where '/' must divide by a
    nonzero constant and an exponent is an integer literal:
      expr := term (('+' | '-') term)*
      term := unary (('*' | '/') unary)*
      unary := ('+' | '-') unary | atom [('^' | '**') integer]
      atom := integer | 'x' | 'y' | '(' expr ')'
    """
    tokens = re.findall(r"[0-9]+|\*\*|\S", text)[::-1]  # a stack: the next token last

    def take(*ops):
        return tokens.pop() if tokens and tokens[-1] in ops else None

    def integer(what):
        if not (tokens and tokens[-1].isascii() and tokens[-1].isdigit()):
            raise ValueError("expected %s at %r" % (what, tokens[-1] if tokens else "the end"))
        return int(tokens.pop())

    def expr():
        out = term()
        while op := take("+", "-"):
            t = term()
            out = add(out, t if op == "+" else scale(t, -1))
        return out

    def term():
        out = unary()
        while op := take("*", "/"):
            t = unary()
            if op == "*":
                out = _times(out, t)
            elif len(t) == 1 and (0, 0) in t:
                out = scale(out, 1 / t[(0, 0)])
            else:
                raise ValueError("'/' needs a nonzero constant divisor")
        return out

    def unary():
        op = take("+", "-")
        if op:
            t = unary()
            return t if op == "+" else scale(t, -1)
        if take("("):
            out = expr()
            if not take(")"):
                raise ValueError("missing ')'")
        elif var := take("x", "y"):
            out = {(1, 0) if var == "x" else (0, 1): Fraction(1)}
        else:
            out = clean({(0, 0): Fraction(integer("x, y, an integer or '('"))})
        if not take("^", "**"):
            return out
        k = integer("an integer exponent")
        return power({0: {(0, 0): Fraction(1)}, 1: out}, k, _times)

    out = expr()
    if tokens:
        raise ValueError("unexpected %r" % tokens[-1])
    return out


def _json_text(value, pad="\n"):
    """json.dumps(value, sort_keys=True, separators=(",", ": "), indent=1),
    byte for byte; ``pad`` is a newline and the indent of value's level.

    Lists, tuples and dicts with str keys are written here, with their
    str and int items inline; every other value goes to json.dumps, whose
    text needs only its newlines re-indented (JSON strings hold none).
    """
    kind, inner = type(value), pad + " "
    if kind is list or kind is tuple:
        parts = [
            _encode_str(v) if type(v) is str
            else int.__repr__(v) if type(v) is int
            else _json_text(v, inner)
            for v in value
        ]
        return "[" + inner + ("," + inner).join(parts) + pad + "]" if parts else "[]"
    if kind is dict and all(type(k) is str for k in value):
        parts = [
            _encode_str(k) + ": " + (
                _encode_str(v) if type(v) is str
                else int.__repr__(v) if type(v) is int
                else _json_text(v, inner)
            )
            for k, v in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(parts) + pad + "}" if parts else "{}"
    text = json.dumps(value, sort_keys=True, separators=(",", ": "), indent=1)
    return text.replace("\n", pad)


def _int_list(xs, pad):
    """_json_text(list(xs), pad) for a sequence of ints."""
    return "[" + pad + " " + ("," + pad + " ").join(map(str, xs)) + pad + "]" if xs else "[]"


@lru_cache(maxsize=256)
def _term_template(npairs, nvars):
    """The text of a series term with npairs [power, "coeff"] pairs and an
    exponent of nvars entries, with a %d for each int."""
    pairs = ",\n    ".join(['[\n     %d,\n     "%d"\n    ]'] * npairs)
    return '{\n   "coeff": %s,\n   "exp": %s\n  }' % (
        "[\n    " + pairs + "\n   ]" if npairs else "[]", _int_list(["%d"] * nvars, "\n   ")
    )


def _series_json(series):
    """_json_text(series.to_json()), filled in by one % format: a template
    per term shape takes the term's sorted pairs and then its exponent,
    and the window's ints come first and the number of variables last."""
    coeffs, nvars = series.coeffs, series.nvars
    shapes, values = [], [*series.hi, *series.lo]
    for e in sorted(coeffs):
        c = coeffs[e].terms
        shapes.append(_term_template(len(c), nvars))
        values += chain.from_iterable(sorted(c.items()))
        values += e
    values.append(nvars)
    ints = _int_list(["%d"] * nvars, "\n ")
    terms = "[\n  " + ",\n  ".join(shapes) + "\n ]" if shapes else "[]"
    template = '{\n "hi": ' + ints + ',\n "lo": ' + ints + ',\n "terms": ' + terms
    return (template + ',\n "vars": %d\n}') % tuple(values)


def _emit(fmt, doc, pretty, text=_json_text):
    """Write the output in format fmt; doc() builds the JSON document, which
    text() writes, and pretty() the text; only the one asked for is built."""
    if fmt == "json":
        sys.stdout.write(text(doc()))
        sys.stdout.write("\n")
    else:
        pretty_text = pretty()
        sys.stdout.write(pretty_text)
        if not pretty_text.endswith("\n"):
            sys.stdout.write("\n")


def _series_pretty(series, symbol):
    lines = []
    for e in sorted(series.coeffs):
        mono = " ".join(
            "t%d^%d" % (i + 1, x) for i, x in enumerate(e) if x
        ) or "1"
        lines.append("%-20s (%s)" % (mono, series.coeffs[e].format(symbol)))
    return "\n".join(lines) if lines else "0"


def _modification_from_args(args):
    if args.script:
        return blowup.run_script(_load_json(args.script))
    raise InvalidInput("this command needs --script")


def cmd_resolve(args):
    curve = Curve.from_json(_load_json(args.curve))
    _, g, attach = blowup.auto_resolve(curve, max_steps=args.max_steps)

    def pretty():
        return "self-intersections: %s\nedges: %s\narrows: %s" % (
            list(g.self_ints),
            [list(map(lambda i: i + 1, e)) for e in g.edges],
            [a + 1 for a in attach],
        )

    _emit(args.format, g.to_json, pretty)
    return EXIT_OK


def cmd_graph(args):
    m = _modification_from_args(args)
    g = m.graph()
    _emit(args.format, g.to_json, lambda: json.dumps(g.to_json(), sort_keys=True))
    return EXIT_OK


def _route_a_window(args):
    """The --bound of a --graph or --script series, refused before any work
    (exit 3) if an entry passes --max-jet: as for the oracles, no
    coefficient at an exponent above the cap is computed."""
    bound = _parse_vector(args.bound)
    for k, x in enumerate(bound):
        if x > args.max_jet:
            raise PrecisionExhausted(
                "entry %d of --bound is %d, above --max-jet %d" % (k + 1, x, args.max_jet)
            )
    return bound


def _graph_series(args, bound, g, data):
    if args.filtration == "curve":
        if args.kind == "P":
            return formulas.curve_poincare_product(g, bound, data), "q"
        if args.kind not in (None, "Pg"):
            raise InvalidInput("curve filtration on a graph supports kinds Pg and P")
        return formulas.curve_series(g, bound, data), "q"
    if args.kind in (None, "Pg"):
        return formulas.divisorial_series(g, bound, data), "q"
    if args.kind == "Phat":
        return formulas.semigroup_class_series(g, bound, data), "L"
    if args.kind == "P":
        return formulas.divisorial_poincare_product(g, bound, data), "L"
    raise InvalidInput("unsupported kind %r for a divisorial graph" % args.kind)


def cmd_poincare(args):
    if args.curve:
        curve = Curve.from_json(_load_json(args.curve))
        bound = _parse_vector(args.bound)
        kind = args.kind or "P"
        oracle = jets.HilbertOracle(curve, max_jet=args.max_jet)
        series = jets.series(oracle, kind, bound)
        symbol = "q" if kind in ("Pg", "Lg") else "L"
    else:
        bound = _route_a_window(args)
        series, symbol = _graph_series(args, bound, *_graph_input(args))
    _emit(args.format, lambda: series, lambda: _series_pretty(series, symbol), _series_json)
    return EXIT_OK


def _graph_input(args):
    """(dual graph, its intersection data or None); a script's modification
    carries the data it certified step by step."""
    if args.graph:
        return graph.DualGraph.from_json(_load_json(args.graph)), None
    if args.script:
        m = blowup.run_script(_load_json(args.script))
        return m.graph(), m.intersection()
    raise InvalidInput("need --curve, --graph or --script")


def cmd_hilbert(args):
    if args.at is None:
        raise InvalidInput("hilbert needs --at")
    at = _parse_vector(args.at)
    if args.curve:
        oracle = jets.HilbertOracle(Curve.from_json(_load_json(args.curve)), max_jet=args.max_jet)
    elif args.script:
        oracle = blowup.DivisorialOracle(_modification_from_args(args), max_jet=args.max_jet)
    else:
        raise InvalidInput("need --curve or --script")
    value = oracle.hilbert(at)
    _emit(args.format, lambda: {"value": value}, lambda: str(value))
    return EXIT_OK


def cmd_multiplicity(args):
    m = _modification_from_args(args)
    poly = _parse_poly(args.poly)
    if args.at:
        at = _parse_vector(args.at)
        if len(at) != 1:
            raise InvalidInput("multiplicity --at takes one component, not %r" % args.at)
        value = m.multiplicity(at[0] - 1, poly)
        _emit(args.format, lambda: {"value": value}, lambda: str(value))
    else:
        vec = m.multiplicity_vector(poly)
        _emit(args.format, lambda: {"value": list(vec)}, lambda: ",".join(map(str, vec)))
    return EXIT_OK


def cmd_verify(args):
    from . import verify

    results = verify.run_all()
    failures = [(n, d) for n, ok, d in results if not ok]
    for name, ok, detail in results:
        line = "%-4s %s" % ("ok" if ok else "FAIL", name)
        if not ok and detail:
            line += "  [%s]" % detail
        print(line)
    print("%d/%d checks passed" % (len(results) - len(failures), len(results)))
    if failures:
        return EXIT_VERIFY
    return EXIT_OK


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser; built once, as parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="motive-series",
        description="Exact Poincare series of multi-index filtrations on curve germs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--curve": dict(help="curve JSON file"),
        "--graph": dict(help="dual graph JSON file"),
        "--script": dict(help="blow-up script JSON file"),
        "--format": dict(choices=("json", "pretty"), default="json"),
        "--max-jet": dict(type=_budget, default=64, help="jet order cap"),
        "--max-steps": dict(type=_budget, default=64, help="blow-up budget"),
        "--bound": dict(required=True, help="window, e.g. 6,6"),
        "--kind": dict(choices=jets.SERIES_KINDS),
        "--filtration": dict(choices=("curve", "divisorial"), default="divisorial"),
        "--at": dict(help="query point, e.g. 3,3 (component for multiplicity)"),
        "--poly": dict(required=True, help="polynomial in x,y"),
    }
    # each subcommand takes only the options it reads
    for name, func, help_text, names in (
        ("resolve", cmd_resolve, "embedded resolution of a plane curve",
         ("--curve", "--format", "--max-steps")),
        ("graph", cmd_graph, "dual graph of a blow-up script", ("--script", "--format")),
        ("poincare", cmd_poincare, "series of a filtration",
         ("--curve", "--graph", "--script", "--format", "--max-jet", "--bound", "--kind",
          "--filtration")),
        ("hilbert", cmd_hilbert, "Hilbert function value",
         ("--curve", "--script", "--format", "--max-jet", "--at")),
        ("multiplicity", cmd_multiplicity, "divisorial multiplicities of a polynomial",
         ("--script", "--format", "--at", "--poly")),
        ("verify", cmd_verify, "run the fixture cross-validation suite", ()),
    ):
        p = sub.add_parser(name, help=help_text)
        for option in names:
            p.add_argument(option, **options[option])
        p.set_defaults(func=func)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here at the latest
        return code
    except BrokenPipeError:  # the reader left: what is still to flush goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except PrecisionExhausted as exc:
        print("precision exhausted: %s" % exc, file=sys.stderr)
        return EXIT_PRECISION
    except VerificationFailure as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return EXIT_VERIFY
    except (InvalidInput, MotiveSeriesError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Subcommands: decompose, ideal, certify, chordal, components.  Output is a
single JSON document with rationals serialized as strings, sorted keys, and
no timestamps, so identical invocations are byte-identical.

Exit codes: 0 success/consistent, 2 parse error (including an --alg n or a
--y entry that is not [+-]p or [+-]p/q in ASCII digits, a negative
--trials or --samples, an all-zero --y, a chordal --n below 2, --k
outside 1..n, --p below 1 or 2k - meet_dim above n (no two k-planes meet in
meet_dim dimensions in QQ^n), a --rep nested deeper than MAX_REP_DEPTH,
and an --output path that cannot be written), 3 dimension mismatch, 4 unsupported
expression (including a wedge or sym degree outside its range, and a
chordal or components module whose symmetric square is not multiplicity
free), 5 discrepancy verdict or a StructuralError or RankOneError (one
``error:`` line on stderr, empty stdout), 6 caps or inconclusive.
Before anything is built, n is checked against MAX_N, certify's --trials
against MAX_TRIALS, every sym degree of --rep and the dimension of every
module a command would build against MAX_DIM (kinds ``n``, ``trials``,
``degree`` and ``dim``).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from math import comb

from .chordal import ChordalSpec, chordal_ideal, component_analysis
from .errors import (CapExceeded, DimensionMismatch, RankOneError, SpecParseError,
                     StructuralError, UnsupportedExpression)
from .lie import make_sl
from .linalg import format_scalar, parse_scalar, vec_is_zero
from .orbit import certify_irreducibility, quadric_ideal
from .reps import Rep, derived_rep, isotypic_decomposition, standard_rep

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_UNSUPPORTED = 4
EXIT_DISCREPANCY = 5
EXIT_INCONCLUSIVE = 6

MAX_REP_DEPTH = 64  # constructor nesting a --rep expression may have
MAX_N = 16  # largest n of --alg sl:<n> and of chordal --n
# largest dimension of a module a command builds: every module of --rep, and
# S^2 V for ideal, certify, components and chordal (chordal --n 9 --k 3 has 3570)
MAX_DIM = 4000
MAX_TRIALS = 1000  # largest certify --trials; the run grows linearly in it


@dataclass
class RunSpec:
    command: str
    algebra: str | None = None
    rep: str | None = None
    y: list[list[Fraction]] | None = None
    seed: int = 0
    trials: int = 25
    n: int | None = None
    k: int | None = None
    p: int | None = None
    samples: int = 0
    output: str | None = None


# ---------------------------------------------------------------------------
# parsing

def parse_algebra(text: str) -> int:
    """The n of an algebra spec sl:<n>, bounded by MAX_N; nothing is built."""
    if not text.startswith("sl:"):
        raise UnsupportedExpression(f"unknown algebra spec {text!r}; expected sl:<n>")
    try:
        if not (text[3:].isascii() and text[3:].isdigit()):
            raise ValueError(text)
        n = int(text[3:])
    except ValueError:
        raise SpecParseError(f"bad algebra spec {text!r}") from None
    if n < 2:
        raise SpecParseError("sl(n) needs n >= 2")
    return _capped("n", n, MAX_N)


def _capped(kind: str, value: int, cap: int) -> int:
    if value > cap:
        raise CapExceeded(kind, f"{kind} {value} exceeds cap {cap}", {kind: value, "cap": cap})
    return value


class _RepParser:
    """Recursive descent over std | dual(E) | wedge(k,E) | sym(k,E) |
    tensor(E,E) | sym2(E), into a tree of (constructor, degree, operands)."""

    def __init__(self, text: str):
        self.text = text.replace(" ", "")
        self.pos = 0

    def parse(self) -> tuple:
        rep = self._expr(0)
        if self.pos != len(self.text):
            raise SpecParseError(f"trailing input in rep expression {self.text!r}")
        return rep

    def _name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        if start == self.pos:
            raise SpecParseError(f"expected a name at position {start} of {self.text!r}")
        return self.text[start:self.pos]

    def _expect(self, ch: str) -> None:
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise SpecParseError(f"expected {ch!r} at position {self.pos} of {self.text!r}")
        self.pos += 1

    def _int(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if start == self.pos:
            raise SpecParseError(f"expected an integer at position {start}")
        return int(self.text[start:self.pos])

    def _expr(self, depth: int) -> tuple:
        if depth > MAX_REP_DEPTH:
            raise SpecParseError(f"rep expression nested deeper than {MAX_REP_DEPTH}")
        name = self._name()
        if name == "std":
            return name, None, ()
        if name in ("dual", "sym2"):
            self._expect("(")
            inner = self._expr(depth + 1)
            self._expect(")")
            return name, None, (inner,)
        if name in ("wedge", "sym"):
            self._expect("(")
            k = self._int()
            self._expect(",")
            inner = self._expr(depth + 1)
            self._expect(")")
            return name, k, (inner,)
        if name == "tensor":
            self._expect("(")
            left = self._expr(depth + 1)
            self._expect(",")
            right = self._expr(depth + 1)
            self._expect(")")
            return name, None, (left, right)
        raise UnsupportedExpression(f"unknown rep constructor {name!r}")


def _parse_tree(text: str) -> tuple:
    try:
        return _RepParser(text).parse()
    except ValueError as exc:  # an integer literal too long to convert
        raise UnsupportedExpression(str(exc)) from None


def _predicted_dim(tree: tuple, n: int) -> int:
    """The dimension of the module a tree builds at sl(n), read off the
    tree alone, ``CapExceeded`` of kind ``dim`` once any of its modules
    would exceed MAX_DIM."""
    name, k, args = tree
    d = [_predicted_dim(a, n) for a in args]
    if name == "std":
        dim = n
    elif name == "tensor":
        dim = d[0] * d[1]
    elif name == "wedge":
        dim = comb(d[0], k)
    elif name == "sym":
        # C(d + k - 1, k) >= k + 1 for d >= 2, so capping k first loses
        # nothing but high powers of a line, and comb never sees a huge k
        dim = comb(d[0] + _capped("degree", k, MAX_DIM) - 1, k) if k else 1
    elif name == "sym2":
        dim = comb(d[0] + 1, 2)
    else:  # dual
        dim = d[0]
    return _capped("dim", dim, MAX_DIM)


def _build_rep(tree: tuple, algebra) -> Rep:
    name, k, args = tree
    try:
        if name == "std":
            return standard_rep(algebra)
        inner = [_build_rep(a, algebra) for a in args]
        if name == "tensor":
            return derived_rep(inner[0], "tensor", other=inner[1])
        return derived_rep(inner[0], name, k)
    except ValueError as exc:  # a degree outside its constructor's domain
        raise UnsupportedExpression(str(exc)) from None


def parse_rep(text: str, algebra) -> Rep:
    return _build_rep(_parse_tree(text), algebra)


def _int_option(text: str) -> int:
    """A signed integer in ASCII digits; int() also reads underscores and other digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="orbitquad", add_help=True)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, needs_y=True, repeat_y=False):
        p.add_argument("--alg", dest="algebra", metavar="ALG", required=True,
                       help="algebra spec, e.g. sl:2")
        p.add_argument("--rep", required=True, help="module expression, e.g. sym(3,std)")
        if needs_y:
            p.add_argument("--y", required=True, action="append",
                           help="rational vector, e.g. 1,0,3/2"
                           + (" (repeatable)" if repeat_y else ""))
        p.add_argument("--seed", type=_int_option, default=0)
        p.add_argument("--trials", type=_int_option, default=25)
        p.add_argument("--output", default=None)

    pd = sub.add_parser("decompose")
    common(pd, needs_y=False)

    pi = sub.add_parser("ideal")
    common(pi)

    pc = sub.add_parser("certify")
    common(pc)

    pch = sub.add_parser("chordal")
    pch.add_argument("--n", type=_int_option, required=True)
    pch.add_argument("--k", type=_int_option, required=True)
    pch.add_argument("--p", type=_int_option, required=True)
    pch.add_argument("--samples", type=_int_option, default=0)
    pch.add_argument("--seed", type=_int_option, default=0)
    pch.add_argument("--output", default=None)

    pco = sub.add_parser("components")
    common(pco, repeat_y=True)
    return top


def parse_spec(argv) -> RunSpec:
    """Parse an argument vector; raises typed errors mapped to exit codes."""
    parser = _build_argparser()
    # argparse takes the "-1,0" of "--y -1,0" for an option; "--y=-1,0" is one word
    words = iter(argv)
    argv = [w + "=" + next(words, "") if w == "--y" else w for w in words]
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            raise
        raise SpecParseError("bad command line") from None
    spec = RunSpec(**vars(ns))
    if spec.trials < 0 or spec.samples < 0:
        raise SpecParseError("--trials and --samples must be >= 0")
    if spec.command == "chordal":
        if spec.n < 2:
            raise SpecParseError("need n >= 2")
        try:
            ChordalSpec(spec.n, spec.k, spec.p)
        except ValueError as exc:
            raise SpecParseError(str(exc)) from None
    elif spec.y is not None:
        spec.y = [[parse_scalar(part) for part in t.split(",")] for t in spec.y]
        if any(vec_is_zero(v) for v in spec.y):
            raise SpecParseError("--y must be a nonzero vector")
        if spec.command in ("ideal", "certify") and len(spec.y) != 1:
            raise SpecParseError(f"{spec.command} takes exactly one --y")
    return spec


# ---------------------------------------------------------------------------
# dispatch

def _rep_and_vectors(spec: RunSpec, squares: bool = True):
    """The module and vectors of a spec, once n and the dimension of every
    module to be built (with S^2 V when ``squares``) are within their caps."""
    n = parse_algebra(spec.algebra)
    tree = _parse_tree(spec.rep)
    dim = _predicted_dim(tree, n)
    if squares:
        _capped("dim", comb(dim + 1, 2), MAX_DIM)
    rep = _build_rep(tree, make_sl(n))
    vectors = spec.y or []
    for v in vectors:
        if len(v) != rep.dim:
            raise DimensionMismatch(
                f"vector length {len(v)} != module dimension {rep.dim}")
    return rep, vectors


def _cmd_decompose(spec: RunSpec) -> tuple[dict, int]:
    rep, _ = _rep_and_vectors(spec, squares=False)
    decomp = isotypic_decomposition(rep)
    result = {
        "dim": rep.dim,
        "isotypic": [
            {"index": i, "weight": list(c.weight), "multiplicity": c.multiplicity,
             "dim": c.dim}
            for i, c in enumerate(decomp.components)
        ],
        "multiplicity_free": decomp.multiplicity_free,
    }
    return result, EXIT_OK


def _cmd_ideal(spec: RunSpec) -> tuple[dict, int]:
    rep, (y,) = _rep_and_vectors(spec)
    ideal = quadric_ideal(rep, y)
    grids = [[["0"] * rep.dim for _ in range(rep.dim)] for _ in range(ideal.dim)]
    for q, grid in enumerate(grids):
        for k, l, e in ideal.pairing(q):
            grid[k][l] = grid[l][k] = format_scalar(e)
    result = {
        "dims": {
            "V": rep.dim,
            "S2V": rep.dim * (rep.dim + 1) // 2,
            "module": ideal.module.dim,
            "ideal": ideal.dim,
        },
        "ideal_basis": grids,
    }
    return result, EXIT_OK


def _cmd_certify(spec: RunSpec) -> tuple[dict, int]:
    _capped("trials", spec.trials, MAX_TRIALS)
    rep, (y,) = _rep_and_vectors(spec)
    report = certify_irreducibility(rep, y, trials=spec.trials, seed=spec.seed)
    code = {"consistent": EXIT_OK, "discrepancy": EXIT_DISCREPANCY,
            "inconclusive": EXIT_INCONCLUSIVE}[report.verdict]
    return report.to_json_dict(), code


def _cmd_chordal(spec: RunSpec) -> tuple[dict, int]:
    _capped("n", spec.n, MAX_N)
    _capped("dim", comb(comb(spec.n, spec.k) + 1, 2), MAX_DIM)
    report = chordal_ideal(ChordalSpec(spec.n, spec.k, spec.p),
                           samples=spec.samples, seed=spec.seed)
    return report.to_json_dict(), EXIT_OK


def _cmd_components(spec: RunSpec) -> tuple[dict, int]:
    rep, vectors = _rep_and_vectors(spec)
    report = component_analysis(rep, vectors)
    result = {
        "supports": [sorted(s) for s in report.point_sets],
        "merged": report.merged,
        "containments": [list(c) for c in report.containments],
        "maximal_count": report.maximal_count,
        "free_indices": report.free_indices,
        "sperner_bound": report.bound,
        "bound_ok": report.bound_ok,
        "component_dims": report.details["component_dims"],
    }
    return result, EXIT_OK


# error type -> exit code, first match wins; caps never get here, since run()
# turns them into a JSON error document
_ERROR_EXITS = (
    (SpecParseError, EXIT_PARSE),
    (DimensionMismatch, EXIT_DIMENSION),
    (UnsupportedExpression, EXIT_UNSUPPORTED),
    (StructuralError, EXIT_DISCREPANCY),
    (RankOneError, EXIT_DISCREPANCY),
)


_DISPATCH = {
    "decompose": _cmd_decompose,
    "ideal": _cmd_ideal,
    "certify": _cmd_certify,
    "chordal": _cmd_chordal,
    "components": _cmd_components,
}


def run(spec: RunSpec) -> tuple[str, int]:
    """Run a parsed spec; returns the JSON document text and the exit code."""
    echo = {f.name: getattr(spec, f.name) for f in fields(RunSpec) if f.name != "output"}
    echo["y"] = [[format_scalar(e) for e in v] for v in spec.y] if spec.y else None
    try:
        result, code = _DISPATCH[spec.command](spec)
        doc = {"schema_version": SCHEMA_VERSION, "spec": echo, "result": result}
    except CapExceeded as exc:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "spec": echo,
            "error": {"kind": exc.kind, "message": str(exc), "details": exc.details},
        }
        code = EXIT_INCONCLUSIVE
    return json.dumps(doc, sort_keys=True, indent=2) + "\n", code


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        spec = parse_spec(argv)
        text, code = run(spec)
    except SystemExit:
        return EXIT_OK  # --help
    except tuple(t for t, _ in _ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(c for t, c in _ERROR_EXITS if isinstance(exc, t))
    if spec.output:
        try:
            with open(spec.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --output: {exc}", file=sys.stderr)
            return EXIT_PARSE
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

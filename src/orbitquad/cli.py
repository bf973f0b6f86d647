"""Command line front end.

Subcommands: decompose, ideal, certify, chordal, components.  Output is a
single JSON document with rationals serialized as strings, sorted keys, and
no timestamps, so identical invocations are byte-identical.

Exit codes: 0 success/consistent, 2 parse error (including a negative
--trials or --samples, an all-zero --y, a chordal --n below 2, --k
outside 1..n or --p below 1, a --rep nested deeper than MAX_REP_DEPTH,
and an --output path that cannot be written), 3 dimension mismatch, 4 unsupported
expression (including a wedge or sym degree outside its range, and a
chordal or components module whose symmetric square is not multiplicity
free), 5 discrepancy verdict or a StructuralError or RankOneError (one
``error:`` line on stderr, empty stdout), 6 caps or inconclusive.
The environment variable ORBITQUAD_MAX_BOX bounds the accepted generator sequence's box.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .chordal import ChordalSpec, chordal_ideal, component_analysis
from .errors import (CapExceeded, DimensionMismatch, RankOneError, SpecParseError,
                     StructuralError, UnsupportedExpression)
from .lie import make_sl
from .linalg import format_scalar, parse_scalar, vec_is_zero
from .orbit import certify_irreducibility, orbit_module, quadric_ideal
from .reps import Rep, derived_rep, isotypic_decomposition, standard_rep

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_UNSUPPORTED = 4
EXIT_DISCREPANCY = 5
EXIT_INCONCLUSIVE = 6

MAX_REP_DEPTH = 64  # constructor nesting a --rep expression may have


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

def parse_algebra(text: str):
    if not text.startswith("sl:"):
        raise UnsupportedExpression(f"unknown algebra spec {text!r}; expected sl:<n>")
    try:
        n = int(text[3:])
    except ValueError:
        raise SpecParseError(f"bad algebra spec {text!r}") from None
    if n < 2:
        raise SpecParseError("sl(n) needs n >= 2")
    return make_sl(n)


def parse_vector(text: str) -> list[Fraction]:
    return [parse_scalar(part) for part in text.split(",")]


class _RepParser:
    """Recursive descent over std | dual(E) | wedge(k,E) | sym(k,E) |
    tensor(E,E) | sym2(E)."""

    def __init__(self, text: str, algebra):
        self.text = text.replace(" ", "")
        self.pos = 0
        self.algebra = algebra

    def parse(self) -> Rep:
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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise SpecParseError(f"expected an integer at position {start}")
        return int(self.text[start:self.pos])

    def _expr(self, depth: int) -> Rep:
        if depth > MAX_REP_DEPTH:
            raise SpecParseError(f"rep expression nested deeper than {MAX_REP_DEPTH}")
        name = self._name()
        if name == "std":
            return standard_rep(self.algebra)
        if name in ("dual", "sym2"):
            self._expect("(")
            inner = self._expr(depth + 1)
            self._expect(")")
            return derived_rep(inner, name)
        if name in ("wedge", "sym"):
            self._expect("(")
            k = self._int()
            self._expect(",")
            inner = self._expr(depth + 1)
            self._expect(")")
            return derived_rep(inner, name, k)
        if name == "tensor":
            self._expect("(")
            left = self._expr(depth + 1)
            self._expect(",")
            right = self._expr(depth + 1)
            self._expect(")")
            return derived_rep(left, "tensor", other=right)
        raise UnsupportedExpression(f"unknown rep constructor {name!r}")


def parse_rep(text: str, algebra) -> Rep:
    try:
        return _RepParser(text, algebra).parse()
    except ValueError as exc:  # a degree outside its constructor's domain
        raise UnsupportedExpression(str(exc)) from None


def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="orbitquad", add_help=True)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, needs_y=True, repeat_y=False):
        p.add_argument("--alg", required=True, help="algebra spec, e.g. sl:2")
        p.add_argument("--rep", required=True, help="module expression, e.g. sym(3,std)")
        if needs_y:
            p.add_argument("--y", required=True, action="append",
                           help="rational vector, e.g. 1,0,3/2"
                           + (" (repeatable)" if repeat_y else ""))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=25)
        p.add_argument("--output", default=None)

    pd = sub.add_parser("decompose")
    common(pd, needs_y=False)

    pi = sub.add_parser("ideal")
    common(pi)

    pc = sub.add_parser("certify")
    common(pc)

    pch = sub.add_parser("chordal")
    pch.add_argument("--n", type=int, required=True)
    pch.add_argument("--k", type=int, required=True)
    pch.add_argument("--p", type=int, required=True)
    pch.add_argument("--samples", type=int, default=0)
    pch.add_argument("--seed", type=int, default=0)
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
    if getattr(ns, "trials", 0) < 0 or getattr(ns, "samples", 0) < 0:
        raise SpecParseError("--trials and --samples must be >= 0")
    spec = RunSpec(command=ns.command)
    if ns.command == "chordal":
        if ns.n < 2:
            raise SpecParseError("need n >= 2")
        if not 1 <= ns.k <= ns.n:
            raise SpecParseError("need 1 <= k <= n")
        if ns.p < 1:
            raise SpecParseError("need p >= 1")
        spec.n, spec.k, spec.p = ns.n, ns.k, ns.p
        spec.samples = ns.samples
        spec.seed = ns.seed
        spec.output = ns.output
        return spec
    spec.algebra = ns.alg
    spec.rep = ns.rep
    spec.seed = ns.seed
    spec.trials = ns.trials
    spec.output = ns.output
    if getattr(ns, "y", None) is not None:
        spec.y = [parse_vector(t) for t in ns.y]
        if any(vec_is_zero(v) for v in spec.y):
            raise SpecParseError("--y must be a nonzero vector")
        if ns.command in ("ideal", "certify") and len(spec.y) != 1:
            raise SpecParseError(f"{ns.command} takes exactly one --y")
    return spec


# ---------------------------------------------------------------------------
# dispatch

def _rep_and_vectors(spec: RunSpec):
    algebra = parse_algebra(spec.algebra)
    rep = parse_rep(spec.rep, algebra)
    vectors = spec.y or []
    for v in vectors:
        if len(v) != rep.dim:
            raise DimensionMismatch(
                f"vector length {len(v)} != module dimension {rep.dim}")
    return rep, vectors


def _cmd_decompose(spec: RunSpec) -> tuple[dict, int]:
    rep, _ = _rep_and_vectors(spec)
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
    module = orbit_module(rep, y)
    ideal = quadric_ideal(rep, y, module=module)
    result = {
        "dims": {
            "V": rep.dim,
            "S2V": rep.dim * (rep.dim + 1) // 2,
            "module": module.dim,
            "ideal": ideal.dim,
        },
        "ideal_basis": [
            [[format_scalar(e) for e in row] for row in phi.data] for phi in ideal.basis
        ],
    }
    return result, EXIT_OK


def _cmd_certify(spec: RunSpec) -> tuple[dict, int]:
    rep, (y,) = _rep_and_vectors(spec)
    max_box = _box_cap_from_env()
    report = certify_irreducibility(rep, y, trials=spec.trials, seed=spec.seed,
                                    max_box=max_box)
    code = {"consistent": EXIT_OK, "discrepancy": EXIT_DISCREPANCY,
            "inconclusive": EXIT_INCONCLUSIVE}[report.verdict]
    return report.to_json_dict(), code


def _cmd_chordal(spec: RunSpec) -> tuple[dict, int]:
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


def _box_cap_from_env() -> int | None:
    raw = os.environ.get("ORBITQUAD_MAX_BOX")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise SpecParseError(f"ORBITQUAD_MAX_BOX must be an integer, got {raw!r}") from None


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
    echo = {
        "command": spec.command,
        "algebra": spec.algebra,
        "rep": spec.rep,
        "y": [[format_scalar(e) for e in v] for v in spec.y] if spec.y else None,
        "seed": spec.seed,
        "trials": spec.trials,
        "n": spec.n,
        "k": spec.k,
        "p": spec.p,
        "samples": spec.samples,
    }
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

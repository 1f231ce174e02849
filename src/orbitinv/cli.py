"""Command-line front end.

One subcommand per library operation, reading a datum from a positional
argument (or ``@file`` to read a file).  Exit codes: 0 on success, 1 when
the input fails to parse or validate (diagnostics on stderr), 2 on usage
errors.  ``--json`` switches the output to the stable JSON forms of
``textio``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .capping import cap_off
from .census import EnumerationBounds, enumerate_invariants
from .formality import euler_number, is_formal
from .invariants import (
    OrbitInvariants,
    canonical_form,
    classify_2d,
    equivalent,
    normalize,
    validate,
)
from .series import betti, equivariant_poincare
from .textio import emit_json, parse, serialize, to_jsonable


def _read_datum(arg: str) -> OrbitInvariants:
    if arg.startswith("@"):
        with open(arg[1:], encoding="utf-8") as handle:
            arg = handle.read().strip()
    return parse(arg)


def cmd_validate(args) -> int:
    inv = _read_datum(args.datum)
    report = validate(inv)
    if args.json:
        print(emit_json(report))
    elif report.ok:
        print("ok")
    if not report.ok:
        for violation in report.violations:
            print(str(violation), file=sys.stderr)
        return 1
    return 0


def cmd_canon(args) -> int:
    inv = _read_datum(args.datum)
    form = canonical_form(inv)  # raises with the violations when inadmissible
    text = serialize(normalize(inv))
    if args.json:
        print(emit_json({"canonical": text, "form": to_jsonable(form)}))
    else:
        print(text)
    return 0


def cmd_equiv(args) -> int:
    a = _read_datum(args.left)
    b = _read_datum(args.right)
    answer = equivalent(a, b)
    if args.json:
        print(emit_json({"equivalent": answer}))
    else:
        print("equivalent" if answer else "not equivalent")
    return 0


def cmd_cap(args) -> int:
    inv = _read_datum(args.datum)
    report = cap_off(inv)
    if args.json:
        print(emit_json(report))
    else:
        print(f"input:  {serialize(report.input)}")
        print(f"output: {serialize(report.output)}")
        print(f"chi: {report.chi_before} -> {report.chi_after}")
        for note in report.notes:
            print(f"  {note}")
    return 0


def cmd_betti(args) -> int:
    inv = _read_datum(args.datum)
    if args.degree is not None:
        values = [betti(inv, args.degree)]
    else:
        series = equivariant_poincare(inv)
        values = series.expansion(args.upto)
    if args.json:
        print(json.dumps({"betti": values}))
    else:
        print(" ".join(str(v) for v in values))
    return 0


def cmd_poincare(args) -> int:
    inv = _read_datum(args.datum)
    series = equivariant_poincare(inv)
    if args.json:
        print(emit_json(series, expansion_upto=args.upto))
    else:
        print(series.render())
        print(f"= {series.render_expansion(args.upto)}")
    return 0


def cmd_formal(args) -> int:
    inv = _read_datum(args.datum)
    result = is_formal(inv)
    if args.json:
        print(emit_json(result))
    elif result.formal:
        print(f"formal ({result.reason})")
        for gen in result.generators:
            print(f"  deg {gen.degree}: {gen.label}")
    else:
        print(f"not formal: {result.reason}")
    return 0


def cmd_euler(args) -> int:
    inv = _read_datum(args.datum)
    value = euler_number(inv)
    if args.json:
        print(emit_json(value))
    else:
        print(value)
    return 0


def cmd_classify2d(args) -> int:
    surface = classify_2d(args.boundary, args.fixed, args.special)
    name = str(surface) if surface else "no such manifold"
    if args.json:
        print(json.dumps({"surface": str(surface) if surface else None}))
    else:
        print(name)
    return 0 if surface else 1


def _parse_bounds(items: list[str]) -> EnumerationBounds:
    keys = [field.name for field in dataclasses.fields(EnumerationBounds)]
    fields = {}
    for item in items:
        key, _, value = item.partition("=")
        if not value:
            raise ValueError(f"bound {item!r} is not of the form key=value")
        if key not in keys:
            raise ValueError(f"unknown bound {key!r}; the bounds are {', '.join(keys)}")
        try:
            if key == "b_range":
                lo, hi = value.split("..")  # ValueError unless exactly one '..'
                fields[key] = (int(lo), int(hi))
            else:
                fields[key] = int(value)
        except ValueError:
            shape = "LO..HI" if key == "b_range" else "an integer"
            raise ValueError(f"bound {key} takes {shape}, got {value!r}") from None
    return EnumerationBounds(**fields)


def cmd_enumerate(args) -> int:
    bounds = _parse_bounds(args.bounds or [])
    for inv in enumerate_invariants(bounds):
        print(serialize(inv))
    return 0


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitinv",
        description="Classification data and exact equivariant cohomology of "
                    "compact 3-manifolds with circle actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, datum: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        if datum:
            p.add_argument("datum", help="invariant notation, or @file")
        return p

    add("validate", cmd_validate, "check the admissibility conditions")
    add("canon", cmd_canon, "print the canonical (normalized, sorted) form")

    p = add("equiv", cmd_equiv, "decide equivariant diffeomorphism", datum=False)
    p.add_argument("left", help="first datum, or @file")
    p.add_argument("right", help="second datum, or @file")

    add("cap", cmd_cap, "cap off every boundary component")

    p = add("betti", cmd_betti, "equivariant Betti numbers")
    p.add_argument("--upto", type=nonnegative_int, default=10,
                   help="print b_0..b_N (default 10)")
    p.add_argument("--degree", type=int, default=None, help="print a single Betti number")

    p = add("poincare", cmd_poincare, "equivariant Poincare series")
    p.add_argument("--upto", type=nonnegative_int, default=10,
                   help="expansion truncation degree (default 10)")

    add("formal", cmd_formal, "equivariant formality and module generators")
    add("euler", cmd_euler, "orbifold Euler number of a closed fixed-point-free datum")

    p = add("classify2d", cmd_classify2d, "classify a 2-manifold with circle action",
            datum=False)
    p.add_argument("boundary", type=int, help="number of boundary circles")
    p.add_argument("fixed", type=int, help="number of fixed points")
    p.add_argument("special", type=int, help="number of special exceptional orbits")

    p = add("enumerate", cmd_enumerate, "stream a census within bounds", datum=False)
    p.add_argument("--bounds", nargs="*", metavar="KEY=VALUE",
                   help="max_g, max_f, max_s, max_t, max_r, max_m, max_cycles, "
                        "max_cycle_len, b_range=LO..HI")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (`orbitinv enumerate ... | head`): stop quietly,
        # and point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # covers ParseError, InvariantError, CappingError, domain errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

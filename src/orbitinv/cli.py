"""Command-line front end.

One subcommand per library operation, reading a datum from a positional
argument (or ``@file`` to read a file).  Exit codes: 0 on success, 1 when
the input fails to parse or validate (diagnostics on stderr), 2 on usage
errors.  ``--json`` switches the output to the stable JSON forms of
``jsonio``.

``COMMANDS`` maps each subcommand to (run function, help text, argument
specs added after ``--json``).  A run function returns the JSON value, a
function rendering that value as text (``None`` for no stdout) and the exit
code.  ``main`` alone writes stdout: under ``--json`` it encodes the value
and never calls the renderer, so no text is built only to be thrown away;
``enumerate``'s value is an iterator, streamed one line per datum.  A run
function imports the operation modules it calls, and ``main`` imports the
JSON encoder only under ``--json``, so a process loads only what its
subcommand runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from collections.abc import Iterator
from functools import partial

from .invariants import (
    OrbitInvariants,
    canonical_form,
    classify_2d,
    equivalent,
    normalize,
    validate,
)
from .textio import parse, serialize


def _read_datum(arg: str) -> OrbitInvariants:
    if arg.startswith("@"):
        with open(arg[1:], encoding="utf-8") as handle:
            arg = handle.read().strip()
    return parse(arg)


def run_validate(args):
    report = validate(_read_datum(args.datum))
    for violation in report.violations:
        print(violation, file=sys.stderr)
    return report, lambda r: "ok" if r.ok else None, 0 if report.ok else 1


def run_canon(args):
    inv = _read_datum(args.datum)
    form = canonical_form(inv)  # raises with the violations when inadmissible
    text = serialize(normalize(inv))
    return {"canonical": text, "form": form}, lambda v: v["canonical"], 0


def run_equiv(args):
    answer = equivalent(_read_datum(args.left), _read_datum(args.right))
    return ({"equivalent": answer},
            lambda v: "equivalent" if v["equivalent"] else "not equivalent", 0)


def run_cap(args):
    from .capping import cap_off

    return cap_off(_read_datum(args.datum)), _render_cap, 0


def _render_cap(report) -> str:
    lines = [f"input:  {serialize(report.input)}", f"output: {serialize(report.output)}",
             f"chi: {report.chi_before} -> {report.chi_after}"]
    lines += (f"  {note}" for note in report.notes)
    return "\n".join(lines)


def run_betti(args):
    from .series import betti, equivariant_poincare

    inv = _read_datum(args.datum)
    values = ([betti(inv, args.degree)] if args.degree is not None
              else equivariant_poincare(inv).expansion(args.upto))
    return {"betti": values}, lambda v: " ".join(map(str, v["betti"])), 0


def run_poincare(args):
    from .series import equivariant_poincare

    series = equivariant_poincare(_read_datum(args.datum))
    # ``main`` encodes the expansion to ``args.upto`` too
    return series, lambda s: f"{s.render()}\n= {s.render_expansion(args.upto)}", 0


def run_formal(args):
    from .formality import is_formal

    return is_formal(_read_datum(args.datum)), _render_formal, 0


def _render_formal(result) -> str:
    head = f"formal ({result.reason})" if result.formal else f"not formal: {result.reason}"
    lines = [head, *(f"  deg {gen.degree}: {gen.label}" for gen in result.generators)]
    return "\n".join(lines)


def run_euler(args):
    from .formality import euler_number

    return euler_number(_read_datum(args.datum)), str, 0


def run_classify2d(args):
    surface = classify_2d(args.boundary, args.fixed, args.special)
    name = str(surface) if surface else None
    return {"surface": name}, lambda v: v["surface"] or "no such manifold", 0 if surface else 1


def _parse_bounds(items: list[str]):
    from .census import EnumerationBounds

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


def run_enumerate(args):
    from .census import enumerate_invariants

    return enumerate_invariants(_parse_bounds(args.bounds or [])), serialize, 0


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


DATUM = ("datum", {"help": "invariant notation, or @file"})
UPTO = {"type": nonnegative_int, "default": 10}
COMMANDS = {
    "validate": (run_validate, "check the admissibility conditions", [DATUM]),
    "canon": (run_canon, "print the canonical (normalized, sorted) form", [DATUM]),
    "equiv": (run_equiv, "decide equivariant diffeomorphism", [
        ("left", {"help": "first datum, or @file"}),
        ("right", {"help": "second datum, or @file"})]),
    "cap": (run_cap, "cap off every boundary component", [DATUM]),
    "betti": (run_betti, "equivariant Betti numbers", [
        DATUM,
        ("--upto", {**UPTO, "help": "print b_0..b_N (default 10)"}),
        ("--degree", {"type": int, "help": "print a single Betti number"})]),
    "poincare": (run_poincare, "equivariant Poincare series", [
        DATUM,
        ("--upto", {**UPTO, "help": "expansion truncation degree (default 10)"})]),
    "formal": (run_formal, "equivariant formality and module generators", [DATUM]),
    "euler": (run_euler, "orbifold Euler number of a closed fixed-point-free datum", [DATUM]),
    "classify2d": (run_classify2d, "classify a 2-manifold with circle action", [
        ("boundary", {"type": int, "help": "number of boundary circles"}),
        ("fixed", {"type": int, "help": "number of fixed points"}),
        ("special", {"type": int, "help": "number of special exceptional orbits"})]),
    "enumerate": (run_enumerate, "stream a census within bounds", [
        ("--bounds", {"nargs": "*", "metavar": "KEY=VALUE",
                      "help": "max_g, max_f, max_s, max_t, max_r, max_m, max_cycles, "
                              "max_cycle_len, b_range=LO..HI"})]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitinv",
        description="Classification data and exact equivariant cohomology of "
                    "compact 3-manifolds with circle actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, specs) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        for arg, kwargs in specs:
            p.add_argument(arg, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        value, render, code = args.run(args)
        if not isinstance(value, Iterator):  # only enumerate streams
            value = [value]
        if args.json:
            from .jsonio import emit_json

            # poincare's --upto is its expansion's length; others have no series
            upto = getattr(args, "upto", 10)
            render = partial(emit_json, expansion_upto=upto)
        for item in value:
            line = render(item)
            if line is not None:
                print(line)
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

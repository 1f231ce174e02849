"""The four workloads: inputs, the timed chain of library calls, and checks.

Each workload builds its inputs from the seed when constructed (that is the
set-up the benchmark times), then serves passes over them.  ``compute`` is
the timed part of one item and only calls into the library; ``check``
compares every result with the oracles afterwards.  ``probes`` are rejection
cases run once per pass: each must be refused, and they count as
operations but not as items.

An operation is one item (it fails if any check on it fails), one probe, or
the end of a pass (pinned totals, and the same counts as every other pass).
A whole pass is thus the same number of operations whatever the seed, and
only whole passes are measured, so ``failed / attempted`` is the same in
every run of the same code.

Three checks hit defects known when the benchmark was defined (ROADMAP items
2 and 5).  Their correct answer is the oracle's; the defective answer is
recognised by its signature and counted in ``failed``, never hidden.  Any
other wrong answer marks the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

from orbitinv import (
    CycleGraph,
    EdgeLabel,
    EnumerationBounds,
    OrbitInvariants,
    SeifertPair,
    canonical_form,
    cap_off,
    cup,
    emit_json,
    enumerate_invariants,
    equivariant_poincare,
    euler_number,
    graph_canonical,
    is_formal,
    module_action,
    parse,
    serialize,
    validate,
)

import gen
import oracles
from gen import Datum

END = object()  # returned by compute when a census pass is exhausted


class Outcomes:
    """Operation tally of one phase.  ``check`` records one check of the
    current operation, ``done`` closes it."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.known = Counter()
        self.unexpected: list[str] = []
        self.wrong = False

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong = True
            if len(self.unexpected) < 20:
                self.unexpected.append(what)

    def known_defect(self, name: str) -> None:
        self.wrong = True
        self.known[name] += 1

    def done(self) -> None:
        self.attempted += 1
        self.failed += self.wrong
        self.wrong = False

    def op(self, ok: bool, what: str) -> None:
        """An operation of a single check."""
        self.check(ok, what)
        self.done()


def attempt(tr, name, fn, *args):
    """Call into the library; (True, value) or (False, exception)."""
    try:
        return True, tr.call(name, fn, *args)
    except Exception as exc:  # the checks decide whether it was expected
        return False, exc


def refused(result) -> bool:
    ok, value = result
    return not ok and isinstance(value, ValueError)


def ints(word) -> tuple:
    return tuple(int(x) for x in word)


def datum_from_json(doc: dict) -> Datum:
    return Datum(doc["b"], doc["eps"], doc["g"], doc["f"], doc["s"], doc["t"],
                 tuple(map(tuple, doc["pairs"])),
                 tuple(tuple(gen.NAMES.index(x) for x in c) for c in doc["graph"]))


class Workload:
    PASS_ITEMS: int  # items in one pass
    WINDOW_ITEMS = 1000  # most items per window of the timed phase

    def items(self):
        raise NotImplementedError

    def probes(self, tr, out: Outcomes, counts: Counter) -> None:
        pass

    def end_pass(self, out: Outcomes) -> None:
        """Checks of a pass that ran to its end, part of its last operation."""

    def trace_extras(self, tr) -> None:
        pass


class Census(Workload):
    """Stream the census of acceptance criterion 9's box, serialize every
    datum and hash the stream; the bulk producer."""

    name = "census"
    PASS_ITEMS = oracles.CENSUS_COUNT

    def __init__(self, seed: int) -> None:
        self.bounds = EnumerationBounds(**oracles.CENSUS_BOUNDS)

    def items(self):
        self.stream = enumerate_invariants(self.bounds)
        self.hash = hashlib.sha256()
        self.count = 0
        while True:
            yield "", None

    def compute(self, item, tr):
        inv = tr.call("census.enumerate_invariants", next, self.stream, None)
        if inv is None:
            return END
        text = tr.call("textio.serialize", serialize, inv)
        if not tr.active:
            return inv, text, None, None
        # validate and canonical_form run inside the generator, out of the
        # benchmark's reach; the traced run times one direct call of each.
        return inv, text, attempt(tr, "invariants.validate", validate, inv), \
            attempt(tr, "invariants.canonical_form", canonical_form, inv)

    def check(self, item, res, out: Outcomes, counts: Counter) -> None:
        inv, text, report, form = res
        self.hash.update(text.encode() + b"\n")
        self.count += 1
        counts["census.data"] += 1
        counts["cyclegraph.edges"] += sum(len(c) for c in inv.graph.cycles)
        counts["textio.output_bytes"] += len(text) + 1
        if self.count % oracles.CHECKPOINT_EVERY == 0:
            k = self.count // oracles.CHECKPOINT_EVERY - 1
            want = oracles.CENSUS_CHECKPOINTS[k] if k < len(oracles.CENSUS_CHECKPOINTS) else None
            out.check(self.hash.hexdigest()[:16] == want,
                   f"census stream differs from the pinned one by datum {self.count}")
        if report is not None:
            out.check(report[0] and report[1].ok, f"validate rejects census datum {text}")
            out.check(form[0], f"canonical_form rejects census datum {text}")

    def end_pass(self, out: Outcomes) -> None:
        out.check(self.count == oracles.CENSUS_COUNT,
               f"census has {self.count} data, pinned {oracles.CENSUS_COUNT}")
        out.check(self.hash.hexdigest() == oracles.CENSUS_DIGEST,
               "census stream digest differs from the pinned one")

    def probes(self, tr, out, counts):
        res = attempt(tr, "census.enumerate_invariants",
                      lambda: EnumerationBounds(b_range=(1, 0)))
        out.op(refused(res), "EnumerationBounds accepted an empty b_range")


class Pipeline(Workload):
    """Census-shaped lines through parse -> cap_off -> poincare ->
    is_formal -> module_action/cup or euler_number -> emit_json."""

    name = "pipeline"
    PASS_ITEMS = 2000
    # About 25 windows in a 25 s run, so that the median over windows rides
    # out a few seconds of load elsewhere on a shared machine.
    WINDOW_ITEMS = 250

    def __init__(self, seed: int) -> None:
        self.inputs = gen.pipeline_lines(seed, self.PASS_ITEMS)
        two = is_formal(parse("{b=0;(o,g=0,f=2,s=0,t=0)}")).generators
        one = is_formal(parse("{b=0;(o,g=0,f=1,s=0,t=0)}")).generators
        self.elements = two[1].element, one[0].element

    def items(self):
        for line, d in self.inputs:
            yield ("closed" if d.closed else "boundary"), (line, d)

    def compute(self, item, tr):
        line, d = item
        res = {"parse": attempt(tr, "textio.parse", parse, line)}
        ok, inv = res["parse"]
        if not ok:
            return res
        closed = inv
        payload = {"datum": inv}
        if not d.closed:
            res["cap"] = ok, report = attempt(tr, "capping.cap_off", cap_off, inv)
            closed = None
            if ok:
                payload["cap"] = report
                closed = report.output
        res["series"] = ok, series = attempt(
            tr, "series.equivariant_poincare", equivariant_poincare, inv)
        if ok:
            res["expansion"] = attempt(tr, "series.expansion", series.expansion, 10)
            payload["series"] = series
        if closed is not None:
            res["formal"] = ok, result = attempt(tr, "formality.is_formal", is_formal, closed)
            if ok and result.formal:
                unit = result.generators[0].element
                res["elements"] = [
                    (g.degree,
                     attempt(tr, "elements.module_action", module_action, 1, g.element),
                     attempt(tr, "elements.cup", cup, unit, g.element), g.element)
                    for g in result.generators]
                payload["formal"] = result
            elif ok and closed.f == 0:
                res["euler"] = ok, value = attempt(
                    tr, "formality.euler_number", euler_number, closed)
                payload["formal"] = result
                payload["euler"] = value
        res["json"] = attempt(tr, "textio.emit_json", emit_json, payload)
        return res

    def check(self, item, res, out: Outcomes, counts: Counter) -> None:
        line, d = item
        ok, inv = res["parse"]
        out.check(ok, f"parse failed on {line}")
        if not ok:
            return
        ok, text = res["json"]
        out.check(ok, f"emit_json failed on {line}")
        if not ok:
            return
        doc = json.loads(text)
        counts["cyclegraph.edges"] += sum(len(c) for c in inv.graph.cycles)
        counts["textio.output_bytes"] += len(text)
        out.check(doc["datum"]["text"] == line, f"round trip changed {line}")
        betti = oracles.betti(d, 10)
        out.check(res["series"][0] and res.get("expansion") == (True, betti)
               and doc["series"]["expansion"] == betti, f"Betti numbers of {line}")
        closed = d
        if not d.closed:
            out.check(res["cap"][0], f"cap_off failed on {line}")
            if not res["cap"][0]:
                return
            cap = doc["cap"]
            why = oracles.check_cap_json(d, cap)
            out.check(why is None, f"cap_off of {line}: {why}")
            closed = datum_from_json(cap["output"])
            counts["capping.rp_pairings"] += len(cap["rp_pairings"])
            counts["capping.orientability_fallbacks"] += cap["output"]["eps"] != cap["input"]["eps"]
        ok, result = res["formal"]
        out.check(ok and result.formal == oracles.is_formal(closed), f"formality of {line}")
        counts["formality.formal"] += ok and result.formal
        if "elements" in res:
            out.check(result.degree_counts() == oracles.generator_degrees(closed),
                   f"generator degrees of {line}")
            for degree, action, product, element in res["elements"]:
                out.check(action[0] and action[1].max_degree() == degree + 2,
                       f"module_action degree on {line}")
                out.check(product[0] and product[1] == element, f"unit cup on {line}")
        if "euler" in res:
            out.check(res["euler"] == (True, oracles.euler_number(closed))
                   and Fraction(doc["euler"]["num"], doc["euler"]["den"])
                   == oracles.euler_number(closed),
                   f"euler_number of {line}")

    def probes(self, tr, out, counts):
        closed = parse("{b=0;(o,g=0,f=1,s=0,t=0)}")
        boundary = parse("{b=0;(o,g=0,f=0,s=0,t=1)}")
        inadmissible = OrbitInvariants(b=1, eps="o", g=0, f=1, s=0, t=0)
        x, y = self.elements
        cases = (
            ("textio.parse", parse, ("{b=0;(o,g=0,f=1,s=0,t=0)",)),
            ("capping.cap_off", cap_off, (closed,)),
            ("series.equivariant_poincare", equivariant_poincare, (inadmissible,)),
            ("formality.is_formal", is_formal, (boundary,)),
            ("formality.euler_number", euler_number, (boundary,)),
            ("elements.module_action", module_action, (-1, x)),
            ("elements.cup", cup, (x, y)),
        )
        for name, fn, args in cases:
            out.op(refused(attempt(tr, name, fn, *args)), f"{name} accepted bad input")
        res = attempt(tr, "textio.emit_json", emit_json, object())
        out.op(not res[0] and isinstance(res[1], TypeError), "emit_json took an object")
        # Known defect: euler_number skips the admissibility check and
        # answers 0 for a datum that is inadmissible three ways.
        res = attempt(tr, "formality.euler_number", euler_number,
                      parse("{b=7;(n,g=0,f=0,s=0,t=0);(4,2)}"))
        if res == (True, Fraction(0)):
            out.known_defect("euler_number accepts {b=7;(n,g=0,f=0,s=0,t=0);(4,2)}")
        else:
            out.check(refused(res), "euler_number on an inadmissible datum")
        out.done()


def edge_bucket(edges: int) -> str:
    return f"e{500 * 2 ** max(0, min(3, round(math.log2(edges / 500))))}"


class LongCycles(Workload):
    """Single cycles of 500..4000 edges with 100..3000 pairs through parse ->
    validate -> canonical_form -> serialize -> cap_off -> emit_json, one in
    eight inadmissible."""

    name = "long-cycles"
    PASS_ITEMS = 40

    def __init__(self, seed: int) -> None:
        self.inputs = gen.long_inputs(seed, self.PASS_ITEMS)
        for x in self.inputs:
            x.alt_graph = CycleGraph((tuple(EdgeLabel(v) for v in x.alt_cycle),))

    def items(self):
        for x in self.inputs:
            yield ("inadmissible" if x.bad else edge_bucket(x.edges)), x

    def compute(self, x, tr):
        res = {"parse": attempt(tr, "textio.parse", parse, x.line)}
        ok, inv = res["parse"]
        if not ok:
            return res
        res["validate"] = attempt(tr, "invariants.validate", validate, inv)
        res["canonical_form"] = attempt(tr, "invariants.canonical_form", canonical_form, inv)
        res["graph_canonical"] = attempt(tr, "cyclegraph.graph_canonical",
                                         graph_canonical, x.alt_graph)
        res["serialize"] = attempt(tr, "textio.serialize", serialize, inv)
        res["cap"] = ok, report = attempt(tr, "capping.cap_off", cap_off, inv)
        if ok:
            res["json"] = attempt(tr, "textio.emit_json", emit_json, report)
        return res

    def check(self, x, res, out: Outcomes, counts: Counter) -> None:
        d = x.datum
        where = f"long input of {x.edges} edges ({x.bad or 'admissible'})"
        out.check(res["parse"][0], f"parse failed on {where}")
        if not res["parse"][0]:
            return
        counts["cyclegraph.edges"] += sum(len(c) for c in res["parse"][1].graph.cycles)
        ok, report = res["validate"]
        want = {x.bad} if x.bad else set()
        out.check(ok and {v.condition for v in report.violations} == want,
               f"validate on {where}")
        counts["invariants.rejected"] += ok and not report.ok
        ok, gc = res["graph_canonical"]
        out.check(ok and tuple(map(ints, gc)) == (x.canon,), f"graph_canonical on {where}")
        ok, text = res["serialize"]
        out.check(ok and text == x.expected_text, f"serialize on {where}")
        counts["textio.output_bytes"] += len(text) if ok else 0
        if x.bad:
            out.check(refused(res["canonical_form"]), f"canonical_form accepted {where}")
            out.check(refused(res["cap"]), f"cap_off accepted {where}")
            return
        ok, form = res["canonical_form"]
        out.check(ok and tuple(map(ints, form.graph_canon)) == (x.canon,)
               and list(map(tuple, ((p.m, p.n) for p in form.pairs))) == sorted(d.pairs),
               f"canonical_form on {where}")
        out.check(res["cap"][0], f"cap_off failed on {where}")
        if not res["cap"][0]:
            return
        ok, text = res["json"]
        out.check(ok, f"emit_json failed on {where}")
        if not ok:
            return
        counts["textio.output_bytes"] += len(text)
        doc = json.loads(text)
        why = oracles.check_cap_json(d, doc)
        if why is None and doc["input"]["text"] != x.expected_text:
            why = "report input text differs"
        out.check(why is None, f"cap_off on {where}: {why}")
        counts["capping.rp_pairings"] += len(doc["rp_pairings"])
        counts["capping.orientability_fallbacks"] += doc["output"]["eps"] != doc["input"]["eps"]

    def probes(self, tr, out, counts):
        res = attempt(tr, "textio.parse", parse, "{b=0;(o,g=0,f=0,s=0,t=0);G=[<F,XP>]}")
        out.op(refused(res), "parse accepted an unknown edge label")
        # Known defect: validate is documented as total but raises TypeError
        # on a pair whose entries are not integers.
        res = attempt(tr, "invariants.validate", validate, OrbitInvariants(
            b=0, eps="o", g=1, f=0, s=0, t=0, pairs=(SeifertPair("3", 1),)))
        if not res[0] and isinstance(res[1], TypeError):
            out.known_defect("validate raises TypeError on SeifertPair('3', 1)")
        else:
            out.check(res[0] and not res[1].ok, "validate on SeifertPair('3', 1)")
            counts["invariants.rejected"] += res[0] and not res[1].ok
        out.done()


class Cli(Workload):
    """`python -m orbitinv.cli` over a seeded mix of all ten subcommands, one
    process at a time (closed loop, one client)."""

    name = "cli"

    def __init__(self, seed: int) -> None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.specs = cli_specs(seed)
        self.PASS_ITEMS = len(self.specs)

    def items(self):
        for spec in self.specs:
            yield spec[0], spec

    def compute(self, spec, tr):
        return tr.call("cli.process", self.run, spec)

    def run(self, spec):
        sub, args, _, _ = spec
        argv = [sys.executable, "-m", "orbitinv.cli", sub, *args]
        if sub != "pipe":
            proc = subprocess.run(argv, capture_output=True, env=self.env, timeout=60)
            return proc.returncode, proc.stdout.decode(), proc.stderr.decode()
        # `enumerate | head -3`: read three lines, then close the pipe.
        argv[3:] = ["enumerate", "--bounds", *bounds_argv(oracles.CENSUS_BOUNDS)]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=self.env) as proc:
            try:
                lines = [proc.stdout.readline().decode() for _ in range(3)]
                proc.stdout.close()
                _, err = proc.communicate(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
        return proc.returncode, "".join(lines), err.decode()

    def check(self, spec, res, out: Outcomes, counts: Counter) -> None:
        sub, args, want_code, expect = spec
        code, stdout, stderr = res
        counts["textio.output_bytes"] += len(stdout)
        if sub == "pipe" and code != 0 and "Broken pipe" in stderr:
            # Known defect: `orbitinv enumerate ... | head` ends in
            # "error: [Errno 32] Broken pipe" and exit 1.
            out.known_defect("enumerate exits 1 on a closed pipe")
            return
        why = None if code == want_code else f"exit {code}, expected {want_code}: {stderr[-200:]}"
        if why is None:
            why = expect(stdout) if callable(expect) else (
                None if stdout.strip() == expect else f"printed {stdout.strip()[:200]!r}")
        out.check(why is None, f"orbitinv {sub} {' '.join(args)[:120]}: {why}")

    def trace_extras(self, tr) -> None:
        for _ in range(10):
            tr.call("cli.interpreter", self._bare, "pass")
            tr.call("cli.import", self._bare, "import orbitinv")

    def _bare(self, code: str) -> None:
        subprocess.run([sys.executable, "-c", code], env=self.env, check=True, timeout=60)


def bounds_argv(bounds: dict) -> list:
    return [f"{k}={v[0]}..{v[1]}" if k == "b_range" else f"{k}={v}" for k, v in bounds.items()]


def _json_check(fn):
    def check(stdout: str):
        try:
            doc = json.loads(stdout)
        except ValueError:
            return f"not JSON: {stdout[:200]!r}"
        return fn(doc)
    return check


def _lines_check(count: int, digest: str):
    def check(stdout: str):
        got = hashlib.sha256(stdout.encode()).hexdigest()
        lines = stdout.count("\n")
        return None if (lines, got) == (count, digest) else f"{lines} lines, digest {got[:16]}"
    return check


def normalize(d: Datum) -> Datum:
    """The normalized representative `orbitinv canon` prints."""
    pairs = d.pairs
    if d.eps == "n":
        pairs = tuple(sorted((m, min(n, m - n)) for m, n in pairs))
    b = d.b
    if d.eps == "n" and d.boundary_circles == 0:
        b = 0 if any(m == 2 for m, _ in pairs) else b % 2
    return Datum(b, d.eps, d.g, d.f, d.s, d.t, pairs, d.cycles)


def presented(rng: random.Random, d: Datum, flip: bool = False) -> str:
    """Another presentation of the same datum: pairs shuffled, cycles rotated,
    reflected and reordered; with ``flip``, nonorientable pairs (m, n) also
    become (m, m-n), which only normalization undoes."""
    pairs = [(m, m - n) if flip and d.eps == "n" and rng.random() < 0.5 else (m, n)
             for m, n in d.pairs]
    rng.shuffle(pairs)
    cycles = [gen.present(rng, c) for c in d.cycles]
    rng.shuffle(cycles)
    return gen.render(d, pairs, cycles)


def cli_specs(seed: int) -> list:
    """(subcommand, args, exit code, expected stdout or check) per process."""
    rng = random.Random(f"cli:{seed}")

    def pick(kinds=gen.KINDS, cond=lambda d: True):
        while True:
            d = gen.small_datum(rng, rng.choice(kinds))
            if cond(d):
                return d

    def formal_check(d):
        def check(doc):
            if doc["formal"] != oracles.is_formal(d):
                return f"formal={doc['formal']}"
            got = dict(Counter(g["degree"] for g in doc["generators"]))
            want = oracles.generator_degrees(d) if doc["formal"] else {}
            return None if got == want else f"generators {got}"
        return check

    specs = []
    for _ in range(2):
        d = pick()
        specs.append(("validate", [presented(rng, d)], 0, "ok"))
    specs.append(("validate", ["{b=2;(o,g=0,f=1,s=0,t=0)}"], 1, ""))
    for _ in range(3):
        d = pick(cond=lambda d: d.eps == "n")
        shown = Datum(d.b + 2 * rng.randint(-2, 2) if d.boundary_circles == 0 else d.b,
                      d.eps, d.g, d.f, d.s, d.t, d.pairs, d.cycles)
        specs.append(("canon", [presented(rng, shown, flip=True)], 0,
                      gen.canonical_text(normalize(shown))))
    for same in (True, True, False):
        d = pick()
        other = d if same else Datum(d.b, d.eps, d.g + 1, d.f, d.s, d.t, d.pairs, d.cycles)
        specs.append(("equiv", [presented(rng, d, True), presented(rng, other, True)], 0,
                      "equivalent" if same else "not equivalent"))
    for _ in range(4):
        d = pick(("boundary",))
        specs.append(("cap", ["--json", presented(rng, d)], 0,
                      _json_check(lambda doc, d=d: oracles.check_cap_json(d, doc))))
    for _ in range(4):
        d = pick()
        specs.append(("betti", [presented(rng, d), "--upto", "6"], 0,
                      " ".join(map(str, oracles.betti(d, 6)))))
    for _ in range(4):
        d = pick()
        want = oracles.betti(d, 8)
        specs.append(("poincare", ["--json", presented(rng, d), "--upto", "8"], 0,
                      _json_check(lambda doc, want=want: None if doc["expansion"] == want
                                  else f"expansion {doc['expansion']}")))
    for _ in range(4):
        d = pick(("formal", "fixed"))
        specs.append(("formal", ["--json", presented(rng, d)], 0, _json_check(formal_check(d))))
    for _ in range(4):
        d = pick(("free",))
        specs.append(("euler", [presented(rng, d)], 0, str(oracles.euler_number(d))))
    for _ in range(4):
        key = tuple(rng.randint(0, 2) for _ in range(3))
        name = oracles.SURFACES.get(key)
        specs.append(("classify2d", [str(v) for v in key], 0 if name else 1,
                      name or "no such manifold"))
    # One enumerate box and one closed pipe: the heavy processes stay a small,
    # fixed share of the mix, below the tail percentile.
    box, count, digest = rng.choice(oracles.CLI_BOXES)
    specs.append(("enumerate", ["--bounds", *box], 0, _lines_check(count, digest)))
    specs.append(("betti", ["{b=0;(o,g=0"], 1, ""))
    specs.append(("poincare", [], 2, ""))
    specs.append(("pipe", [], 0, "\n".join(oracles.CENSUS_FIRST_LINES)))
    rng.shuffle(specs)
    return specs


WORKLOADS = {w.name: w for w in (Census, Pipeline, LongCycles, Cli)}

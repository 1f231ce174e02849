"""Exit codes and rendered output of the command-line front end."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from orbitinv import cli, parse, validate, verify_capping, cap_off
from orbitinv.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_betti_upto(self, capsys):
        code, out, _ = run(capsys, "betti", "{b=0;(o,g=0,f=1,s=0,t=0)}", "--upto", "5")
        assert code == 0 and out.strip() == "1 0 1 1 1 1"

    def test_betti_single_degree(self, capsys):
        code, out, _ = run(capsys, "betti", "{b=0;(o,g=1,f=2,s=1,t=0)}", "--degree", "7")
        assert code == 0 and out.strip() == "2"

    def test_betti_huge_degree(self, capsys):
        code, out, _ = run(capsys, "betti", "{b=0;(o,g=1,f=2,s=1,t=0)}",
                           "--degree", str(10**18))
        assert code == 0 and out.strip() == "2"

    def test_poincare_renders_fraction_and_prefix(self, capsys):
        code, out, _ = run(capsys, "poincare", "{b=0;(o,g=0,f=1,s=0,t=0)}", "--upto", "4")
        assert code == 0
        assert "/" in out.splitlines()[0]
        assert out.splitlines()[1].startswith("= 1 + x^2 + x^3 + x^4")

    def test_formal_json_generator_count(self, capsys):
        code, out, _ = run(capsys, "formal", "{b=0;(o,g=0,f=3,s=0,t=0)}", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["formal"] is True and len(doc["generators"]) == 6

    def test_equiv_permuted_pairs(self, capsys):
        a = "{b=2;(o,g=1,f=0,s=0,t=0);(3,1),(5,2)}"
        b = "{b=2;(o,g=1,f=0,s=0,t=0);(5,2),(3,1)}"
        code, out, _ = run(capsys, "equiv", a, b)
        assert code == 0 and out.strip() == "equivalent"

    def test_equiv_distinct(self, capsys):
        code, out, _ = run(capsys, "equiv", "{b=1;(o,g=0,f=0,s=0,t=0)}",
                           "{b=-1;(o,g=0,f=0,s=0,t=0)}")
        assert code == 0 and out.strip() == "not equivalent"

    def test_euler(self, capsys):
        code, out, _ = run(capsys, "euler", "{b=1;(o,g=0,f=0,s=0,t=0);(3,2),(5,3)}")
        assert code == 0 and out.strip() == "31/15"

    def test_canon_normalizes(self, capsys):
        code, out, _ = run(capsys, "canon", "{b=3;(n,g=1,f=0,s=0,t=0);(5,4)}")
        assert code == 0 and out.strip() == "{b=1;(n,g=1,f=0,s=0,t=0);(5,1)}"

    def test_cap_text_output(self, capsys):
        code, out, _ = run(capsys, "cap", "{b=0;(o,g=0,f=0,s=0,t=1)}")
        assert code == 0
        assert "output: {b=0;(o,g=0,f=0,s=0,t=0)}" in out

    def test_classify2d(self, capsys):
        code, out, _ = run(capsys, "classify2d", "1", "1", "0")
        assert code == 0 and out.strip() == "disk"
        code, out, _ = run(capsys, "classify2d", "3", "0", "0")
        assert code == 1 and out.strip() == "no such manifold"


class TestFailureModes:
    def test_invalid_datum_exits_one_with_stderr(self, capsys):
        code, out, err = run(capsys, "validate", "{b=3;(o,g=0,f=2,s=0,t=0)}")
        assert code == 1 and "condition 1" in err

    def test_valid_datum_prints_ok(self, capsys):
        code, out, _ = run(capsys, "validate", "{b=5;(o,g=2,f=0,s=0,t=0);(3,1)}")
        assert code == 0 and out.strip() == "ok"

    def test_pairs_numbered_in_held_order(self, capsys):
        code, out, err = run(capsys, "validate", "{b=0;(o,g=0,f=0,s=0,t=0);(5,1),(4,2)}")
        assert code == 1 and out == ""
        assert err.strip() == "condition 2: pair #0 (4,2): gcd(m, n) = 2 != 1"

    def test_parse_error_exits_one(self, capsys):
        code, _, err = run(capsys, "betti", "{b=0;(o,g=0,f=0,s=0,t=0);(4;2)}")
        assert code == 1 and "expected" in err

    def test_cap_of_closed_datum_exits_one(self, capsys):
        code, _, err = run(capsys, "cap", "{b=0;(o,g=0,f=1,s=0,t=0)}")
        assert code == 1 and "closed" in err

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["betti"])  # missing datum
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["betti", "poincare"])
    def test_negative_upto_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            main([command, "{b=0;(o,g=0,f=1,s=0,t=0)}", "--upto", "-1"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--upto: must be nonnegative" in captured.err

    def test_negative_degree_exits_one(self, capsys):
        code, out, err = run(capsys, "betti", "{b=0;(o,g=0,f=1,s=0,t=0)}", "--degree", "-1")
        assert code == 1 and out == "" and "nonnegative" in err

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, "validate", "@/no/such/file.inv")
        assert code == 1 and "error" in err


class TestFileInput:
    def test_at_file(self, capsys, tmp_path):
        path = tmp_path / "datum.inv"
        path.write_text("{b=0;(o,g=0,f=1,s=0,t=0)}\n")
        code, out, _ = run(capsys, "betti", f"@{path}", "--upto", "3")
        assert code == 0 and out.strip() == "1 0 1 1"


class TestEnumerate:
    def test_streaming_output_parses_and_validates(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--bounds", "max_f=1", "max_t=1",
                           "max_cycles=1", "max_cycle_len=4")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) > 5
        for line in lines:
            assert validate(parse(line)).ok

    def test_pipe_into_cap(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--bounds", "max_t=1",
                           "max_cycles=2", "max_cycle_len=4")
        assert code == 0
        for line in out.strip().splitlines():
            inv = parse(line)
            if not inv.closed:
                assert verify_capping(cap_off(inv))

    def test_bad_bounds_exit_one(self, capsys):
        code, _, err = run(capsys, "enumerate", "--bounds", "max_g")
        assert code == 1 and "key=value" in err

    def test_unknown_bound_named_with_the_accepted_keys(self, capsys):
        code, _, err = run(capsys, "enumerate", "--bounds", "max_q=3")
        assert code == 1
        assert err == ("error: unknown bound 'max_q'; the bounds are max_g, max_f, max_s, "
                       "max_t, max_r, max_m, max_cycles, max_cycle_len, b_range\n")

    @pytest.mark.parametrize("value", ["3", "1..x", "1..2..3"])
    def test_b_range_takes_lo_dot_dot_hi(self, capsys, value):
        code, _, err = run(capsys, "enumerate", "--bounds", "b_range=" + value)
        assert code == 1 and err == f"error: bound b_range takes LO..HI, got {value!r}\n"

    def test_closed_pipe_exits_quietly(self):
        # `orbitinv enumerate ... | head -1` on a box whose 8,910 lines are
        # far more than a pipe buffer holds, so the writer must meet the
        # closed pipe.
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        argv = [sys.executable, "-m", "orbitinv.cli", "enumerate", "--bounds",
                "max_g=1", "max_f=1", "max_s=1", "max_t=1", "max_r=2", "max_m=4",
                "max_cycles=2", "max_cycle_len=4", "b_range=-2..2"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert first == b"{b=-2;(o,g=0,f=0,s=0,t=0)}\n"
        assert proc.returncode == 0
        assert err == b""


CAP_INPUT = "{b=0;(o,g=0,f=0,s=0,t=1);G=[<F,RP,SE,RP>]}"
CAP_NOTES = (
    "filled 1 torus boundary circle(s) with solid tori",
    "cycle 0 <F,RP,SE,RP>: sewed RP arcs at positions 1 and 3 into one F and one SE arc",
    "cycle 0 <F,RP,SE,RP> closed up into 1 fixed circle(s) and 1 special-exceptional "
    "circle(s)",
    "orientability kept as on the input; sewing projective-plane bands admits other "
    "realizations",
    "obstruction b stays 0; no twisted refilling of a torus boundary needed",
)
ENUMERATED = (
    "{b=0;(o,g=0,f=0,s=0,t=0)}\n"
    "{b=0;(o,g=0,f=0,s=0,t=0);G=[<F,SP>]}\n"
    "{b=0;(o,g=0,f=0,s=0,t=0);G=[<SE,K>]}\n"
    "{b=0;(o,g=0,f=0,s=0,t=1)}\n"
    "{b=0;(o,g=0,f=0,s=0,t=1);G=[<F,SP>]}\n"
    "{b=0;(o,g=0,f=0,s=0,t=1);G=[<SE,K>]}\n"
)
ENUMERATED_JSON = (
    '{"text": "{b=0;(o,g=0,f=0,s=0,t=0)}", "b": 0, "eps": "o", "g": 0, "f": 0, "s": 0, '
    '"t": 0, "pairs": [], "graph": []}\n'
    '{"text": "{b=0;(o,g=0,f=0,s=0,t=0);G=[<F,SP>]}", "b": 0, "eps": "o", "g": 0, "f": 0, '
    '"s": 0, "t": 0, "pairs": [], "graph": [["F", "SP"]]}\n'
    '{"text": "{b=0;(o,g=0,f=0,s=0,t=0);G=[<SE,K>]}", "b": 0, "eps": "o", "g": 0, "f": 0, '
    '"s": 0, "t": 0, "pairs": [], "graph": [["SE", "K"]]}\n'
    '{"text": "{b=0;(o,g=0,f=0,s=0,t=1)}", "b": 0, "eps": "o", "g": 0, "f": 0, "s": 0, '
    '"t": 1, "pairs": [], "graph": []}\n'
    '{"text": "{b=0;(o,g=0,f=0,s=0,t=1);G=[<F,SP>]}", "b": 0, "eps": "o", "g": 0, "f": 0, '
    '"s": 0, "t": 1, "pairs": [], "graph": [["F", "SP"]]}\n'
    '{"text": "{b=0;(o,g=0,f=0,s=0,t=1);G=[<SE,K>]}", "b": 0, "eps": "o", "g": 0, "f": 0, '
    '"s": 0, "t": 1, "pairs": [], "graph": [["SE", "K"]]}\n'
)

# (argv, text stdout, --json stdout); every subcommand exits 0 on these.
PINNED = [
    (["validate", "{b=5;(o,g=2,f=0,s=0,t=0);(3,1)}"],
     "ok\n",
     '{"ok": true, "violations": []}\n'),
    (["canon", "{b=3;(n,g=1,f=0,s=0,t=0);(5,4),(3,1)}"],
     "{b=1;(n,g=1,f=0,s=0,t=0);(3,1),(5,1)}\n",
     '{"canonical": "{b=1;(n,g=1,f=0,s=0,t=0);(3,1),(5,1)}", "form": {"b": 1, '
     '"eps": "n", "g": 1, "f": 0, "s": 0, "t": 0, "pairs": [[3, 1], [5, 1]], '
     '"graph": []}}\n'),
    (["equiv", "{b=2;(o,g=1,f=0,s=0,t=0);(3,1),(5,2)}",
      "{b=2;(o,g=1,f=0,s=0,t=0);(5,2),(3,1)}"],
     "equivalent\n",
     '{"equivalent": true}\n'),
    (["cap", CAP_INPUT],
     f"input:  {CAP_INPUT}\n"
     "output: {b=0;(o,g=0,f=1,s=1,t=0)}\n"
     "chi: 0 -> 0\n" + "".join(f"  {note}\n" for note in CAP_NOTES),
     '{"input": {"text": "' + CAP_INPUT + '", "b": 0, "eps": "o", "g": 0, "f": 0, '
     '"s": 0, "t": 1, "pairs": [], "graph": [["F", "RP", "SE", "RP"]]}, '
     '"output": {"text": "{b=0;(o,g=0,f=1,s=1,t=0)}", "b": 0, "eps": "o", "g": 0, '
     '"f": 1, "s": 1, "t": 0, "pairs": [], "graph": []}, "chi_before": 0, '
     '"chi_after": 0, "rp_pairings": [{"cycle": 0, "positions": [1, 3]}], "notes": ['
     + ", ".join(f'"{note}"' for note in CAP_NOTES) + "]}\n"),
    (["betti", "{b=0;(o,g=1,f=2,s=1,t=0)}", "--upto", "5"],
     "1 4 2 2 2 2\n",
     '{"betti": [1, 4, 2, 2, 2, 2]}\n'),
    (["poincare", "{b=0;(o,g=0,f=1,s=0,t=0)}", "--upto", "4"],
     "(1 - x + x^2)/(1 - x)\n= 1 + x^2 + x^3 + x^4 + ...\n",
     '{"numerator": [1, -1, 1], "denominator": [1, -1], "expansion": [1, 0, 1, 1, 1]}\n'),
    (["formal", "{b=0;(o,g=0,f=2,s=1,t=0)}"],
     "formal (orientable orbit surface with g = 0, s = 1)\n"
     "  deg 0: delta_1+delta_2\n"
     "  deg 1: theta_1\n"
     "  deg 1: theta_2\n"
     "  deg 2: u*(delta_1-delta_2)\n",
     '{"formal": true, "reason": "orientable orbit surface with g = 0, s = 1", '
     '"generators": [{"degree": 0, "label": "delta_1+delta_2"}, {"degree": 1, '
     '"label": "theta_1"}, {"degree": 1, "label": "theta_2"}, {"degree": 2, '
     '"label": "u*(delta_1-delta_2)"}]}\n'),
    (["euler", "{b=1;(o,g=0,f=0,s=0,t=0);(3,2),(5,3)}"],
     "31/15\n",
     '{"num": 31, "den": 15}\n'),
    (["classify2d", "1", "0", "1"],
     "Mobius band\n",
     '{"surface": "Mobius band"}\n'),
    # enumerate --json writes one emit_json(datum) object per line (JSON Lines)
    (["enumerate", "--bounds", "max_t=1", "max_cycles=1", "max_cycle_len=2"],
     ENUMERATED,
     ENUMERATED_JSON),
]


class TestPinnedOutput:
    """Exact stdout and exit code of every subcommand, text and JSON."""

    def test_every_subcommand_pinned(self):
        assert {argv[0] for argv, _, _ in PINNED} == {
            "validate", "canon", "equiv", "cap", "betti", "poincare", "formal", "euler",
            "classify2d", "enumerate"}

    @pytest.mark.parametrize("argv, text, as_json", PINNED, ids=[p[0][0] for p in PINNED])
    def test_stdout_and_exit_code(self, capsys, argv, text, as_json):
        assert run(capsys, *argv) == (0, text, "")
        assert run(capsys, *argv, "--json") == (0, as_json, "")

    @pytest.mark.parametrize("argv, text, as_json", PINNED, ids=[p[0][0] for p in PINNED])
    def test_json_builds_no_text(self, capsys, monkeypatch, argv, text, as_json):
        # under --json, main encodes the value and never calls the renderer
        run_command, help_text, specs = cli.COMMANDS[argv[0]]

        def refuse(item):
            raise AssertionError(f"rendered text for {argv[0]} --json")

        def run_without_text(args):
            value, _, code = run_command(args)
            return value, refuse, code

        monkeypatch.setitem(cli.COMMANDS, argv[0], (run_without_text, help_text, specs))
        assert run(capsys, *argv, "--json") == (0, as_json, "")

    def test_cap_json_serializes_no_datum_for_text(self, capsys, monkeypatch):
        # the text report's two renderings of the data are not made under --json
        def refuse(inv):
            raise AssertionError("cap --json rendered the text report")

        monkeypatch.setattr(cli, "serialize", refuse)
        argv, _, as_json = next(p for p in PINNED if p[0][0] == "cap")
        assert run(capsys, *argv, "--json") == (0, as_json, "")


VIOLATION = "condition 1: b must be 0 when f+s+t > 0 or the graph is nonempty, got b=3\n"
UNTERMINATED_ERR = "error: " + "; ".join(
    f"at 11..11: expected {token!r}, got 'end of input'"
    for token in (",", "f", "=", ",", "s", "=", ")", "}")) + "\n"

# (argv, exit code, stdout, stderr) of the paths that do not exit 0.
FAILURES = [
    pytest.param(["validate", "{b=3;(o,g=0,f=2,s=0,t=0)}"], 1, "", VIOLATION,
                 id="validate-inadmissible"),
    pytest.param(["validate", "{b=3;(o,g=0,f=2,s=0,t=0)}", "--json"], 1,
                 '{"ok": false, "violations": [{"condition": "1", "message": "b must be 0 '
                 'when f+s+t > 0 or the graph is nonempty, got b=3"}]}\n',
                 VIOLATION, id="validate-inadmissible-json"),
    pytest.param(["classify2d", "3", "0", "0"], 1, "no such manifold\n", "",
                 id="classify2d-none"),
    pytest.param(["classify2d", "3", "0", "0", "--json"], 1, '{"surface": null}\n', "",
                 id="classify2d-none-json"),
    pytest.param(["cap", "{b=0;(o,g=0,f=1,s=0,t=0)}"], 1, "",
                 "error: datum is already closed: nothing to cap\n", id="cap-closed"),
    pytest.param(["betti", "{b=0;(o,g=0"], 1, "", UNTERMINATED_ERR, id="betti-unparsable"),
    pytest.param(["betti", "{b=0;(o,g=0,f=1,s=0,t=0)}", "--degree", "-1"], 1, "",
                 "error: degree must be nonnegative\n", id="betti-negative-degree"),
    pytest.param(["validate", "@/no/such/file.inv"], 1, "",
                 "error: [Errno 2] No such file or directory: '/no/such/file.inv'\n",
                 id="validate-missing-file"),
]


class TestPinnedFailures:
    """Exact exit code, stdout and stderr of the paths that do not exit 0."""

    @pytest.mark.parametrize("argv, code, out, err", FAILURES)
    def test_exit_code_stdout_stderr(self, capsys, argv, code, out, err):
        assert run(capsys, *argv) == (code, out, err)


# The usage lines of `orbitinv --help`: argparse 3.13 keeps the `...` on the
# choices line.
if sys.version_info >= (3, 13):
    TOP_USAGE = (
        "usage: orbitinv [-h]\n"
        "                {validate,canon,equiv,cap,betti,poincare,formal,euler,classify2d,enumerate} ...\n"
    )
else:
    TOP_USAGE = (
        "usage: orbitinv [-h]\n"
        "                {validate,canon,equiv,cap,betti,poincare,formal,euler,classify2d,enumerate}\n"
        "                ...\n"
    )

# `--help` stdout at 80 columns, for `orbitinv` (None) and each subcommand.
HELP = {
    None: TOP_USAGE + (
        "\n"
        "Classification data and exact equivariant cohomology of compact 3-manifolds\n"
        "with circle actions.\n"
        "\n"
        "positional arguments:\n"
        "  {validate,canon,equiv,cap,betti,poincare,formal,euler,classify2d,enumerate}\n"
        "    validate            check the admissibility conditions\n"
        "    canon               print the canonical (normalized, sorted) form\n"
        "    equiv               decide equivariant diffeomorphism\n"
        "    cap                 cap off every boundary component\n"
        "    betti               equivariant Betti numbers\n"
        "    poincare            equivariant Poincare series\n"
        "    formal              equivariant formality and module generators\n"
        "    euler               orbifold Euler number of a closed fixed-point-free\n"
        "                        datum\n"
        "    classify2d          classify a 2-manifold with circle action\n"
        "    enumerate           stream a census within bounds\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    "validate": (
        "usage: orbitinv validate [-h] [--json] datum\n"
        "\n"
        "positional arguments:\n"
        "  datum       invariant notation, or @file\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --json      emit JSON on stdout\n"
    ),
    "canon": (
        "usage: orbitinv canon [-h] [--json] datum\n"
        "\n"
        "positional arguments:\n"
        "  datum       invariant notation, or @file\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --json      emit JSON on stdout\n"
    ),
    "equiv": (
        "usage: orbitinv equiv [-h] [--json] left right\n"
        "\n"
        "positional arguments:\n"
        "  left        first datum, or @file\n"
        "  right       second datum, or @file\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --json      emit JSON on stdout\n"
    ),
    "cap": (
        "usage: orbitinv cap [-h] [--json] datum\n"
        "\n"
        "positional arguments:\n"
        "  datum       invariant notation, or @file\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --json      emit JSON on stdout\n"
    ),
    "betti": (
        "usage: orbitinv betti [-h] [--json] [--upto UPTO] [--degree DEGREE] datum\n"
        "\n"
        "positional arguments:\n"
        "  datum            invariant notation, or @file\n"
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --json           emit JSON on stdout\n"
        "  --upto UPTO      print b_0..b_N (default 10)\n"
        "  --degree DEGREE  print a single Betti number\n"
    ),
    "poincare": (
        "usage: orbitinv poincare [-h] [--json] [--upto UPTO] datum\n"
        "\n"
        "positional arguments:\n"
        "  datum        invariant notation, or @file\n"
        "\n"
        "options:\n"
        "  -h, --help   show this help message and exit\n"
        "  --json       emit JSON on stdout\n"
        "  --upto UPTO  expansion truncation degree (default 10)\n"
    ),
    "formal": (
        "usage: orbitinv formal [-h] [--json] datum\n"
        "\n"
        "positional arguments:\n"
        "  datum       invariant notation, or @file\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --json      emit JSON on stdout\n"
    ),
    "euler": (
        "usage: orbitinv euler [-h] [--json] datum\n"
        "\n"
        "positional arguments:\n"
        "  datum       invariant notation, or @file\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --json      emit JSON on stdout\n"
    ),
    "classify2d": (
        "usage: orbitinv classify2d [-h] [--json] boundary fixed special\n"
        "\n"
        "positional arguments:\n"
        "  boundary    number of boundary circles\n"
        "  fixed       number of fixed points\n"
        "  special     number of special exceptional orbits\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --json      emit JSON on stdout\n"
    ),
    "enumerate": (
        "usage: orbitinv enumerate [-h] [--json] [--bounds [KEY=VALUE ...]]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --json                emit JSON on stdout\n"
        "  --bounds [KEY=VALUE ...]\n"
        "                        max_g, max_f, max_s, max_t, max_r, max_m, max_cycles,\n"
        "                        max_cycle_len, b_range=LO..HI\n"
    ),
}


class TestPinnedHelp:
    """Every argument, default, metavar and help string of the parser."""

    def test_every_subcommand_pinned(self):
        assert set(HELP) == {None} | {argv[0] for argv, _, _ in PINNED}

    @pytest.mark.parametrize("command", list(HELP), ids=[str(c) for c in HELP])
    def test_help_stdout(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_:
            main(([command] if command else []) + ["--help"])
        captured = capsys.readouterr()
        assert (exit_.value.code, captured.out, captured.err) == (0, HELP[command], "")


def long_cycles() -> list[str]:
    """A seeded valid cycle of 4,000 edges, the same cycle rotated and
    reflected, and the cycle with one boundary arc flipped."""
    rng = random.Random(4000)
    inner = [rng.choice(("F", "SE")) for _ in range(2000)]
    word = [x for a, b in zip(inner, inner[1:] + inner[:1])
            for x in (a, "SP" if a == b == "F" else "K" if a == b else "RP")]
    flipped = word[:]
    flipped[1] = {"SP": "K", "K": "SP", "RP": "SP"}[word[1]]
    return ["{b=0;(o,g=1,f=1,s=0,t=1);(3,1),(5,2);G=[<%s>]}" % ",".join(cycle)
            for cycle in (word, (word[1234:] + word[:1234])[::-1], flipped)]


LONG = long_cycles()
SERIES_DATA = ["{b=3;(o,g=1,f=0,s=0,t=0)}", "{b=0;(o,g=1,f=2,s=1,t=0)}",
               "{b=0;(n,g=2,f=1,s=0,t=1);G=[<F,RP,SE,RP>]}"]
EDGE_DATA = ["{b=0;(n,g=2,f=1,s=0,t=1);G=[<F,RP,SE,RP>]}", "{b=0;(o,g=0,f=1,s=0,t=0)}"]
REPEATED = ",".join(["F,RP,SE,RP"] * 250)
# The "Console script" digests of .github/workflows/tier1.yml: per name, the
# commands (argv and exit code) whose stdout, concatenated, hashes to the
# value there.
CONSOLE_DIGESTS = {
    "census": ([(["enumerate", "--bounds", "max_g=1", "max_f=2", "max_cycles=1",
                  "max_cycle_len=4"], 0)],
               "a203d1fc5cea82848debbd27722a35f78151507712b3fb3980e19af81f0ab005"),
    "series": ([(["poincare", d, "--upto", "7", "--json"], 0) for d in SERIES_DATA],
               "6e9678fd24d07134a482dee817e90b2eada58ea653d70ca8d3a38d8ad4fd4f9e"),
    "json": ([(["validate", "--json", "{b=1;(o,g=0,f=1,s=0,t=0);G=[<F,SE>]}"], 1),
              (["validate", "--json", "{b=5;(o,g=2,f=0,s=0,t=0);(3,1)}"], 0),
              (["canon", "--json", "{b=3;(n,g=1,f=0,s=0,t=0);(5,4)}"], 0),
              (["cap", "--json", "{b=0;(o,g=0,f=0,s=0,t=1);G=[<F,RP,SE,RP>]}"], 0),
              (["formal", "--json", "{b=0;(o,g=0,f=3,s=0,t=0)}"], 0),
              (["formal", "--json", "{b=0;(o,g=1,f=2,s=1,t=0)}"], 0),
              (["euler", "--json", "{b=1;(o,g=0,f=0,s=0,t=0);(3,2),(5,3)}"], 0)],
             "fbe19319b23ca415a6ad634361c9823f755750c4185d90a2ea52d0b1c6b75949"),
    "shuffled": ([(["canon", "--json", "{b=3;(n,g=1,f=0,s=0,t=0);(7,5),(5,4),(7,3),(3,1)}"], 0),
                  (["cap", "--json",
                    "{b=0;(n,g=1,f=0,s=0,t=1);(7,3),(3,1),(7,2);G=[<F,RP,SE,RP>]}"], 0),
                  (["euler", "--json", "{b=1;(o,g=0,f=0,s=0,t=0);(5,3),(3,2),(5,2)}"], 0),
                  (["equiv", "--json", "{b=0;(n,g=1,f=1,s=0,t=0);(7,5),(3,1)}",
                    "{b=0;(n,g=1,f=1,s=0,t=0);(3,1),(7,2)}"], 0)],
                 "e1b3ed0fdcfefc87deb5e455410ba380b90b645500458ec3872c83367b6cc27e"),
    "cap": ([(["cap", "--json", "{b=0;(o,g=0,f=0,s=0,t=1);G=[<%s>]}" % REPEATED], 0),
             (["cap", "--json", "{b=0;(n,g=1,f=0,s=1,t=1);(3,1),(5,2);"
                                "G=[<F,SP>,<F,RP,SE,K,SE,RP,F,SP>,<SE,K,SE,K>,<F,RP,SE,RP>]}"],
              0)],
            "23406c61b8f95bb92e8a14c5afce32dbec9f01a985edd581b9514006764515d7"),
    "edges": ([(["poincare", "--json", "--upto", u, d], 0)
               for d in EDGE_DATA for u in ("0", "1", "2", "25")],
              "5dbffb8ac4b28ad97387bf5f28411c1b9fb2310ab805695b3e4dffdf61234991"),
    "long": ([(["canon", "--json", LONG[0]], 0), (["canon", "--json", LONG[1]], 0),
              (["cap", "--json", LONG[0]], 0), (["validate", "--json", LONG[2]], 1)],
             "e2900069f895f533c2d7870593e9a7223aed4635c0ad5df240e7fc0ffe5d292a"),
}


class TestConsoleScriptDigests:
    """The CI's console-script digests, run through ``main`` in process."""

    @pytest.mark.parametrize("name", CONSOLE_DIGESTS)
    def test_stdout_digest(self, capsys, name):
        commands, want = CONSOLE_DIGESTS[name]
        digest = hashlib.sha256()
        for argv, code in commands:
            assert main(argv) == code
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == want

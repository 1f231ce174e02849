"""Exit codes and rendered output of the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbitinv import parse, validate, verify_capping, cap_off
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
    # enumerate accepts --json and prints the same text lines
    (["enumerate", "--bounds", "max_t=1", "max_cycles=1", "max_cycle_len=2"],
     ENUMERATED,
     ENUMERATED),
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

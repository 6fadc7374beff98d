import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from equicurve.cli import main, run
from equicurve.cyclotomic import root_of_unity


def test_embed_reference_invocation():
    code, text = run(["embed", "--lambda", "[1:1],[-1:1]",
                      "--gens", "[[-1,0],[0,1]]"])
    assert code == 0
    assert "x^2" in text or "x^4" in text
    assert "certificates" in text


def test_embed_without_gens_small_set_uses_trivial_group():
    code, text = run(["embed", "--lambda", "[1:1],[-1:1]"])
    assert code == 0
    assert "Cyclic(1)" in text


def test_embed_full_stabilizer_default():
    code, text = run(["embed", "--lambda", "[0:1],[1:1],[-1:1],[1:0]"])
    assert code == 0
    assert "Dihedral" in text


def test_plane_extend_obstructed_reference():
    code, text = run(["plane-extend", "--lambda", "[0:1],[1:1],[1:0]",
                      "--g", "[[0,1],[-1,1]]"])
    assert code == 0
    assert "verdict: Obstructed" in text


def test_plane_extend_extendable():
    code, text = run(["plane-extend", "--lambda", "[0:1],[1:0]",
                      "--g", "[[2,0],[0,1]]"])
    assert code == 0
    assert "verdict: Extendable" in text


@pytest.mark.parametrize("g, order", [
    ("[[cyc(125; 0, 1), 0], [0, 1]]", "125"),
    # -zeta_63 has order 126 = 2 * 63, the largest its field allows
    ("[[cyc(63; 0, -1), 0], [0, 1]]", "126"),
    ("[[2, 0], [0, 1]]", "infinite"),
], ids=["order-125", "order-126-over-q63", "infinite"])
def test_plane_extend_reports_orders_bounded_by_the_field(g, order):
    code, text = run(["plane-extend", "--lambda", "[0:1],[1:0]", "--g", g])
    assert code == 0
    assert f"order: {order}" in text.splitlines()


@pytest.mark.parametrize("argv, message", [
    (["cor25", "--k", "1", "--a", "1", "--group-cap", "7"],
     "parse error: unrecognized arguments: --group-cap 7"),
    (["planar-normalize", "--P", "x", "--Q", "1/x", "--R", "x + 1/x",
      "--group-cap", "7"],
     "parse error: unrecognized arguments: --group-cap 7"),
    (["verify-extension", "--F", "X; Y; Z", "--tau", "x; 1/(x^2 - x); 0",
      "--phi", "[[1,0],[0,1]]", "--group-cap", "7"],
     "parse error: unrecognized arguments: --group-cap 7"),
    (["plane-extend", "--lambda", "[2:1],[-2:1]", "--g", "[[-1,0],[0,1]]",
      "--group-cap", "7"],
     "parse error: unrecognized arguments: --group-cap 7"),
    (["preset", "--kind", "tetrahedral", "--pairs", "(0, 1)",
      "--group-cap", "5"],
     "parse error: the tetrahedral group has order 12, more than "
     "--group-cap (5)"),
    (["preset", "--kind", "dihedral", "--n", "61", "--pairs", "(1, 2)"],
     "parse error: the dihedral group has order 122, more than "
     "--group-cap (120)"),
], ids=["cor25", "planar-normalize", "verify-extension", "plane-extend",
        "tetrahedral-over-cap", "dihedral-over-cap"])
def test_group_cap_only_where_a_group_is_built(argv, message):
    assert run(argv) == (2, message)


def test_preset_group_cap_bounds_the_group_order_not_n():
    code, text = run(["preset", "--kind", "dihedral", "--n", "61",
                      "--pairs", "(1, 2)", "--group-cap", "122"])
    assert code == 0
    assert "group: Dihedral(61)" in text.splitlines()


def test_parse_error_exit_2():
    code, text = run(["embed", "--lambda", "nonsense"])
    assert code == 2
    assert "parse error" in text


def test_construction_error_exit_3():
    code, text = run(["aut", "--lambda", "[0:1],[1:1]"])
    assert code == 3
    assert "construction error" in text
    # a repeated point counts once
    assert run(["aut", "--lambda", "[0:1],[0:1],[1:0]"]) == (
        3, "construction error: automorphism search needs at least 3 "
           "distinct points")
    # a value that parses but fails a precondition of the construction
    code, text = run(["preset", "--kind", "dihedral", "--n", "1",
                      "--pairs", "(0, 1)"])
    assert code == 3
    assert text.startswith("construction error")


def test_verify_extension_pass_and_fail():
    args = ["verify-extension",
            "--F", "X; Y; Z",
            "--tau", "x; 1/(x^2 - x); 0",
            "--phi", "[[1,0],[0,1]]"]
    code, _ = run(args)
    assert code == 0
    args[2] = "X + 1; Y; Z"
    code, text = run(args)
    assert code == 1
    assert "FAIL" in text


_Z5_TAU = ("x; (x - cyc(5; 0, 123456789, 0, 1) + 2/3)"
           "/(x^2 - cyc(5; 0, 0, 1, 98765431)/7919); "
           "(x^2 - cyc(5; 0, 0, 1, 98765431)/7919)/(x - cyc(5; 0, 5, 0, 1)/11)")


@pytest.mark.parametrize("F, tau, head", [
    # D = 2 * 49 + 22 = 120 over T = 1 term, small heights
    ("Y^49*Z^22; Y; Z", "x; 1/(x^2 - 2); 1/(x - 3)", "(-x^121 + 66*x^120 "),
    # D = 2 * 38 + 2 * 22 = 120, large heights: the residual's numerator and
    # denominator share (x^2 - 98765/4321)^22
    ("Y^38*Z^22; Y; Z",
     "x; 1/(x^2 - 98765/4321); (x^2 - 98765/4321)/(x - 12345/6789)",
     "(-x^55 + 90530/2263*x^54 "),
    # D = 2 * 40 + 2 * 20 = 120 over Q(zeta_5), 9-digit coefficients
    ("Y^40*Z^20 + Y*Z^3 + 1; Y; Z", _Z5_TAU,
     "(x^62 + cyc(5; -1/3, -1358024764/11, 0, -28/11)*x^61 "),
], ids=["small-height", "large-height", "zeta5"])
def test_verify_extension_at_the_degree_bound_prints_its_residual(F, tau, head):
    # within both bounds; the residual of component 1, reduced by one gcd of
    # two polynomials of degree about 120, is printed in bounded time
    t0 = time.perf_counter()
    code, text = run(["verify-extension", "--F", F, "--tau", tau,
                      "--phi", "[[1,0],[0,1]]"])
    assert code == 1
    assert "FAIL  component 1 residual is zero  [residual " + head in text
    assert time.perf_counter() - t0 < 20


def test_aut_command():
    code, text = run(["aut", "--lambda", "[0:1],[1:1],[1:0]"])
    assert code == 0
    assert "order: 6" in text


def test_delta_command():
    code, text = run(["delta", "--lambda", "[1:1],[-1:1]",
                      "--gens", "[[-1,0],[0,1]]"])
    assert code == 0
    assert "map:" in text


def test_preset_command_and_multiplicity_flag():
    code, _ = run(["preset", "--kind", "tetrahedral", "--pairs", "(1, 0)"])
    assert code == 3
    code, text = run(["preset", "--kind", "tetrahedral", "--pairs", "(1, 0)",
                      "--allow-multiplicity"])
    assert code == 0
    assert "x^5*y - x*y^5" in text


def test_planar_normalize_command():
    code, text = run(["planar-normalize", "--P", "x", "--Q", "1/x",
                      "--R", "x + 1/x"])
    assert code == 0
    assert "chain" in text
    code, text = run(["planar-normalize", "--P", "x", "--Q", "1/x",
                      "--R", "0"])
    assert code == 3


def test_cor25_command():
    code, text = run(["cor25", "--k", "2", "--a", "1, 2"])
    assert code == 0
    assert "points:" in text


def test_json_mirrors_text():
    args = ["embed", "--lambda", "[1:1],[-1:1]", "--gens", "[[-1,0],[0,1]]"]
    code_t, text = run(args + ["--format", "text", "--certificate"])
    code_j, blob = run(args + ["--format", "json"])
    assert code_t == code_j == 0
    data = json.loads(blob)
    assert data["command"] == "embed"
    assert data["exit"] == 0
    for comp in data["components"].values():
        assert comp.split(" / ")[0].strip("()") in text
    clauses = [cl for c in data["certificates"] for cl in c["clauses"]]
    assert clauses and all(cl["status"] == "PASS" for cl in clauses)


def test_byte_identical_reports():
    jobs = [
        ["embed", "--lambda", "[1:1],[-1:1]", "--gens", "[[-1,0],[0,1]]",
         "--certificate"],
        ["aut", "--lambda", "[0:1],[1:1],[1:0]"],
        ["plane-extend", "--lambda", "[0:1],[1:1],[1:0]",
         "--g", "[[0,1],[-1,1]]"],
        ["cor25", "--k", "2", "--a", "1, 5", "--format", "json"],
        ["preset", "--kind", "dihedral", "--n", "2", "--pairs", "(1, 3)",
         "--format", "json"],
    ]
    for job in jobs:
        out1 = run(job)
        out2 = run(job)
        assert out1 == out2


# prints, after the import, a text report and a JSON report, which of the
# modules a CLI process need not load are loaded
_IMPORTS = """
import sys
import equicurve.cli
def loaded():
    print(*[m for m in ("dataclasses", "inspect", "json") if m in sys.modules])
loaded()
equicurve.cli.run(sys.argv[1:])
loaded()
equicurve.cli.run(sys.argv[1:] + ["--format", "json"])
loaded()
"""


def test_cli_process_loads_json_only_for_a_json_report():
    # every CLI job is a fresh process that pays for each module the package
    # imports; -S leaves the imports of site out of the count
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORTS, "aut", "--lambda",
         "[0:1],[1:1],[1:0]"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", "", "json"]


def test_exit_statuses_documented():
    # 0 = pass, 1 = certificate failure, 2 = parse, 3 = construction
    assert run(["cor25", "--k", "1", "--a", "1"])[0] == 0
    assert run(["cor25", "--k", "2", "--a", "1, cyc(3;0,1)"])[0] == 3
    assert run(["cor25", "--k", "2", "--a", "1, ]["])[0] == 2


def test_conductor_cap_flag():
    code, text = run(["aut", "--lambda", "[cyc(8;0,1):1],[1:1],[0:1],[1:0]",
                      "--conductor-cap", "2"])
    assert code == 3
    assert "conductor" in text
    code, _ = run(["aut", "--lambda", "[cyc(8;0,1):1],[1:1],[0:1],[1:0]"])
    assert code == 0


def test_nonpositive_caps_rejected_with_one_line():
    for flag in ("--conductor-cap", "--group-cap"):
        code, text = run(["aut", "--lambda", "[0:1],[1:1],[1:0],[2:1],[3:1]",
                          flag, "0"])
        assert code == 2
        assert text == f"parse error: {flag} must be positive, got 0"
    code, text = run(["planar-normalize", "--P", "x", "--Q", "1/x",
                      "--R", "x + 1/x", "--cap", "-1"])
    assert code == 2 and len(text.splitlines()) == 1


def test_group_cap_enforced_by_stabilizer_search():
    code, text = run(["aut", "--lambda", "[0:1],[1:1],[1:0],[2:1],[3:1]",
                      "--group-cap", "1"])
    assert code == 3
    assert text == "construction error: stabilizer exceeded cap 1"


_AUT = ["aut", "--lambda", "[0:1],[1:1],[1:0],[2:1]"]
_PLANAR = ["planar-normalize", "--P", "x", "--Q", "1/x", "--R", "x + 1/x"]
_PRESET = ["preset", "--kind", "cyclic", "--pairs", "(1, 2)"]
_COR25 = ["cor25", "--a", "1"]
_EXTEND = ["verify-extension", "--F", "X; Y; Z", "--tau", "x; 1/(x^2 - x); 0",
           "--phi", "[[1,0],[0,1]]"]


@pytest.mark.parametrize("argv, message", [
    (_AUT + ["--conductor-cap", "2.5"],
     "parse error: --conductor-cap must be an integer, got '2.5'"),
    (_AUT + ["--group-cap", "many"],
     "parse error: --group-cap must be an integer, got 'many'"),
    (_PLANAR + ["--cap", "1e3"],
     "parse error: --cap must be an integer, got '1e3'"),
    (_COR25 + ["--k", "1.0"], "parse error: --k must be an integer, got '1.0'"),
    (_PRESET + ["--n", "three"],
     "parse error: --n must be an integer, got 'three'"),
    (_COR25 + ["--k", "0"], "parse error: --k must be positive, got 0"),
    (_PRESET + ["--n", "-2"], "parse error: --n must be positive, got -2"),
    (_PRESET + ["--n", "1000000000000000003"],
     "parse error: --n must be at most --group-cap (120), "
     "got 1000000000000000003"),
    (_PRESET + ["--n", "13", "--group-cap", "12"],
     "parse error: --n must be at most --group-cap (12), got 13"),
    (["preset", "--kind", "tetrahedral", "--pairs", "(0, 1)", "--n", "3"],
     "parse error: --n applies to the cyclic and dihedral presets only"),
    (["preset", "--kind", "cyclic", "--pairs", "(0, 1)"],
     "parse error: the cyclic preset needs --n"),
    (["preset", "--kind", "dihedral", "--pairs", "(0, 1)"],
     "parse error: the dihedral preset needs --n"),
    (_PLANAR[:2] + ["x^" + "9" * 40] + _PLANAR[3:],
     f"parse error: exponent {'9' * 40} at position 2 exceeds 64"),
    (_PLANAR[:2] + ["(1 + x)^64^64"] + _PLANAR[3:],
     "parse error: exponent product 4096 at position 11 exceeds 64"),
    (_PLANAR[:2] + ["((1 + x)^8)^9"] + _PLANAR[3:],
     "parse error: exponent product 72 at position 12 exceeds 64"),
    (["cor25", "--k", "2", "--a", "1, 2^64^64^64^64^64"],
     "parse error: exponent product 4096 at position 5 exceeds 64"),
    (_EXTEND[:2] + ["(X + Y + Z + 1)^32; Y; Z"] + _EXTEND[3:],
     "parse error: power at position 16 may have 6545 terms, more than 2048"),
    (_EXTEND[:2] + ["(1 + X)^64*(1 + Y)^64; Y; Z"] + _EXTEND[3:],
     "parse error: product at position 10 may have 4225 terms, more than 2048"),
    (_EXTEND[:2] + ["X; Y^49*X^23; Z"] + _EXTEND[3:],
     "parse error: substituting tau into component 2 of F implies degree "
     "D = 121 over T = 1 terms; the bounds are D <= 120 and "
     "T * D^2 <= 262144"),
    (_PLANAR + ["--cap", "200"],
     "parse error: witness degree cap 200 exceeds 24"),
    (_PLANAR[:6] + ["(" * 250 + "x" + ")" * 250],
     "parse error: parentheses at position 100 nest deeper than 100"),
], ids=["conductor-cap", "group-cap", "cap", "k", "n", "k-range", "n-range",
        "n-huge", "n-above-group-cap", "n-tetrahedral", "n-missing-cyclic",
        "n-missing-dihedral", "huge-exponent",
        "chained-exponent", "nested-exponent", "chained-constant-exponent",
        "many-terms-power", "many-terms-product", "substitution-degree",
        "witness-degree-cap", "nesting-depth"])
def test_bad_integer_flags_exit_2_with_one_line(argv, message, capsys):
    assert run(argv) == (2, message)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == (message + "\n", "")


_PRIME = "100000000000000000039"
_OVER_CAP = (f"construction error: conductor {_PRIME} needs a field degree "
             f"above cap 256; raise it with --conductor-cap")


@pytest.mark.parametrize("argv, message", [
    (["aut", "--lambda", f"[cyc({_PRIME}; 0, 1):1],[0:1],[1:0]"], _OVER_CAP),
    (["preset", "--kind", "cyclic", "--n", _PRIME, "--group-cap", _PRIME,
      "--pairs", "(1, 2)"], _OVER_CAP),
    (["plane-extend", "--lambda", f"[1:1],[{_PRIME}:1]",
      "--g", f"[[0,{_PRIME}],[1,0]]"],
     f"construction error: no square root found for 1/{_PRIME}"),
], ids=["cyc-literal", "preset-root-of-unity", "square-root"])
def test_large_primes_exit_3_with_one_line_at_once(argv, message):
    # a conductor or square root past the cap is rejected without factoring
    # the prime, which trial division would take hours to do
    t0 = time.perf_counter()
    assert run(argv) == (3, message)
    assert time.perf_counter() - t0 < 5


def test_run_restores_the_conductor_cap():
    # the cap is process-global; a job's --conductor-cap must not outlive
    # the job, whether it ends in a report or in an error
    jobs = [(_AUT, 0),
            (["aut", "--lambda", "[cyc(8; 0, 1) : 1],[0:1],[1:0]"], 3)]
    for argv, status in jobs:
        assert run(argv + ["--conductor-cap", "1"])[0] == status
        assert root_of_unity(8) ** 8 == 1


def test_integer_flags_accept_what_int_accepts():
    code, text = run(_PRESET + ["--n", " 3", "--group-cap", "+120"])
    assert code == 0 and "n: 3" in text


@pytest.mark.parametrize("argv, message", [
    (["planar-normalize", "--P", "-x", "--Q", "1/x", "--R", "x"],
     "parse error: argument --P: expected one argument; write --P=-x for a "
     "value that starts with '-'"),
    (["planar-normalize", "--Q", "1/x", "--R", "x"],
     "parse error: the following arguments are required: --P"),
    (_AUT + ["--format", "xml"],
     "parse error: argument --format: invalid choice: 'xml' "
     "(choose from 'text', 'json')"),
    (_AUT + ["extra"], "parse error: unrecognized arguments: extra"),
    ([], "parse error: the following arguments are required: command"),
    (["planar-normalize", "--P", "x", "--Q", "1/x", "--R"],
     "parse error: argument --R: expected one argument"),
], ids=["leading-dash", "missing-flag", "bad-format", "extra-argument",
        "no-command", "flag-without-value"])
def test_argparse_errors_exit_2_with_one_line(argv, message, capsys):
    assert run(argv) == (2, message)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == (message + "\n", "")


def test_leading_dash_value_with_equals_sign():
    code, text = run(["planar-normalize", "--P=-x", "--Q", "1/x",
                      "--R", "x + 1/x"])
    assert code == 0 and "P: -x" in text


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["aut", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: equicurve aut")


# every subcommand with its flags, each with a value it accepts; fuzzed
# values come from a small alphabet with a leading '-', cyc(...), ^64,
# brackets, ';' and ':'
_FUZZ_FLAGS = {
    "aut": ("--lambda", "--group-cap"),
    "delta": ("--lambda", "--gens", "--group-cap"),
    "embed": ("--lambda", "--gens", "--group-cap"),
    "preset": ("--kind", "--n", "--pairs", "--allow-multiplicity",
               "--group-cap"),
    "planar-normalize": ("--P", "--Q", "--R", "--cap"),
    "verify-extension": ("--F", "--tau", "--phi"),
    "plane-extend": ("--lambda", "--g"),
    "cor25": ("--k", "--a"),
}
_FUZZ_GOOD = {
    "--lambda": "[0:1],[1:1],[1:0]", "--gens": "[[-1,0],[0,1]]",
    "--kind": "cyclic", "--n": "2", "--pairs": "(1, 2)", "--P": "x",
    "--Q": "1/x", "--R": "x + 1/x", "--cap": "4", "--F": "X; Y; Z",
    "--tau": "x; 1/(x^2 - x); 0", "--phi": "[[1,0],[0,1]]",
    "--g": "[[-1,0],[0,1]]", "--k": "2", "--a": "1, 2", "--format": "json",
    "--conductor-cap": "8", "--group-cap": "24",
}
_FUZZ_SWITCHES = ("--allow-multiplicity", "--certificate")
_FUZZ_COMMON = ("--format", "--certificate", "--conductor-cap")
_FUZZ_TOKENS = ("-", "-x", "1", "2", "0", "x", "X", "Y", "Z", "cyc(4; 0, 1)",
                "cyc(3;0,1)", "^64", "^2", "[", "]", "[0:1]", "[1:1],[1:0]",
                "[[-1,0],[0,1]]", "[[0,1],[1,0]]", ";", ":", ",", "(1, 2)",
                "/", "+", "*", " ", "json", "cyclic")
_FUZZ_VALUES = st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=4).map("".join)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_cli_fuzz_exits_with_a_status_and_one_line(data):
    command = data.draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    argv = [command]
    for flag in _FUZZ_FLAGS[command] + _FUZZ_COMMON:
        if not data.draw(st.integers(0, 3)):
            continue
        if flag in _FUZZ_SWITCHES:
            argv.append(flag)
        else:
            argv += [flag, data.draw(st.one_of(st.just(_FUZZ_GOOD[flag]),
                                               _FUZZ_VALUES))]
    try:
        code, text = run(argv)
    except SystemExit as e:
        raise AssertionError(f"SystemExit({e.code}) escaped for {argv}")
    assert code in (0, 1, 2, 3), argv
    if code in (2, 3):
        assert len(text.splitlines()) == 1, (argv, text)


# -- relabeling: a report depends on the set of points, not on their order --------

_POINT_SETS = (
    ("[0:1]", "[1:1]", "[-1:1]", "[1:0]"),
    ("[1:1]", "[-1:1]", "[2:1]", "[-2:1]"),
    ("[0:1]", "[2:1]", "[1:0]", "[1/3:1]", "[-5:2]"),
    ("[1:1]", "[cyc(4; 0, 1):1]", "[-1:1]", "[cyc(4; 0, -1):1]"),
    ("[0:1]", "[1:0]", "[1:1]", "[-1:1]", "[cyc(4; 0, 1):1]",
     "[cyc(4; 0, -1):1]"),
    ("[1:1]", "[-1:1]", "[cyc(4; 1, 1):1]", "[cyc(4; -1, -1):1]"),
)


@settings(derandomize=True, max_examples=16, deadline=None)
@given(st.data())
def test_reports_do_not_depend_on_the_order_of_the_points(data):
    points = data.draw(st.sampled_from(_POINT_SETS))
    shuffled = data.draw(st.permutations(points))
    for command in ("aut", "embed", "delta"):
        assert run([command, "--lambda", ",".join(shuffled)]) == \
            run([command, "--lambda", ",".join(points)]), (command, shuffled)

import json
import math
import os
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest

from rbannulus import (
    DEFAULT_EPS,
    InstanceError,
    PointSet,
    SolutionReport,
    Strip,
    check_report,
    format_instance,
    generate_instance,
    load_instance,
    max_rbca,
    max_rbra,
    parse_instance,
    render_svg,
    save_instance,
)
import rbannulus
from rbannulus.cli import main, parse_line_spec, solve_instance
from rbannulus.reference import max_rbra_reference

STRIP4 = "x,y,color\n0,0,1\n1,0,2\n5,0,1\n6,0,2\n"


def run(capsys, argv):
    code = main(argv)
    got = capsys.readouterr()
    return code, got.out, got.err


# ---------------------------------------------------------------------------
# instance format


def test_instance_round_trip(tmp_path):
    ps = generate_instance(14, 3, "uniform", seed=9)
    again = parse_instance(format_instance(ps))
    assert again == ps
    path = tmp_path / "inst.csv"
    save_instance(ps, path)
    assert path.read_text() == format_instance(ps)
    assert load_instance(path) == ps


def test_parse_diagnostics_carry_line_numbers():
    with pytest.raises(InstanceError) as e:
        parse_instance("x,y,color\n1,2,1\nbad,5,2\n")
    assert e.value.line == 3
    with pytest.raises(InstanceError) as e:
        parse_instance("wrong header\n")
    assert e.value.line == 1
    with pytest.raises(InstanceError):
        parse_instance("x,y,color\n1,2\n")
    with pytest.raises(InstanceError):
        parse_instance("x,y,color\n1,2,0\n")
    # blank lines are skipped; a check of the whole point set names no
    # line: line 0, left out of the message
    ps = parse_instance("x,y,color\n0,0,1\n\n1,0,1\n  \n")
    assert ps == PointSet.build([(0, 0, 1), (1, 0, 1)], 1)
    for text, line, match in (
            ("x,y,color\n0,inf,1\n1,0,1\n", 2, "non-finite"),
            ("x,y,color\n0,0,1\n1,0,one\n", 3, "bad color"),
            ("x,y,color\n", 2, "no points"),
            ("x,y,color\n0,0,1\n1,0,1\n2,0,2\n", 0, "two points")):
        with pytest.raises(InstanceError, match=match) as e:
            parse_instance(text)
        assert e.value.line == line, text
        assert str(e.value).startswith("line") == bool(line), text


def test_generator_validation():
    with pytest.raises(ValueError):
        generate_instance(10, 6)
    with pytest.raises(ValueError):
        generate_instance(10, 0)
    with pytest.raises(ValueError):
        generate_instance(10, 2, "triangles")


def test_generator_rings_circle_feasible():
    ps = generate_instance(20, 3, "rings", seed=0)
    assert max_rbca(ps) is not None


# ---------------------------------------------------------------------------
# reports


def test_report_json_round_trip_with_infinities():
    rep = SolutionReport(
        "rect", 2.0,
        {"outer_left": -math.inf, "outer_right": 10.0,
         "outer_bottom": -math.inf, "outer_top": 8.0,
         "inner_left": -math.inf, "inner_right": 8.0,
         "inner_bottom": -math.inf, "inner_top": 6.0, "width": 2.0},
        "anchored walk", 1.0)
    text = rep.to_json()
    assert '"-inf"' in text
    back = SolutionReport.from_json(text)
    assert back.geometry["outer_left"] == -math.inf
    assert back.annulus().width == 2.0


def test_report_rejects_what_it_cannot_describe():
    with pytest.raises(ValueError, match="unknown shape"):
        SolutionReport.for_annulus("hexagon", Strip("vertical", 0.0, 1.0), "", 0.0)
    rep = SolutionReport("strip", 1.0, {"orientation": "vertical", "lo": 0.0},
                         "", 0.0)
    with pytest.raises(ValueError, match="geometry missing"):
        rep.annulus()
    with pytest.raises(ValueError, match="report missing 'geometry'"):
        SolutionReport.from_json('{"shape": "strip", "width": 1.0}')
    with pytest.raises(ValueError, match="unknown shape"):
        SolutionReport.from_json('{"shape": "hexagon", "width": 1.0, "geometry": {}}')
    bad = SolutionReport("strip", 1.0, {"orientation": "diagonal", "lo": 0.0,
                                        "hi": 1.0}, "", 0.0)
    for report in (rep, bad):
        ok, msg = check_report(report, parse_instance(STRIP4))
        assert not ok and msg.startswith("cannot rebuild geometry"), msg


# ---------------------------------------------------------------------------
# line spec parsing


def test_parse_line_spec():
    def abc(spec):
        line = parse_line_spec(spec)
        return (line.a, line.b, line.c)

    assert abc("y=0") == (0.0, 1.0, 0.0)
    assert abc("2x-3y=6") == (2.0, -3.0, 6.0)
    assert abc("x = -1") == (1.0, 0.0, -1.0)
    assert abc("-x+y=2") == (-1.0, 1.0, 2.0)
    assert abc("1e-5x+y=0") == (1e-5, 1.0, 0.0)
    assert abc("2.5e+3x-y=1") == (2500.0, -1.0, 1.0)
    for bad in ("y", "0x+0y=1", "2z=1", "x+=1"):
        with pytest.raises(ValueError):
            parse_line_spec(bad)
    with pytest.raises(ValueError, match="right-hand side"):
        parse_line_spec("x=abc")
    with pytest.raises(ValueError, match="term 'xy'"):
        parse_line_spec("xy=1")


# ---------------------------------------------------------------------------
# commands


def test_gen_deterministic(capsys):
    code1, out1, _ = run(capsys, ["gen", "--n", "10", "--k", "2", "--seed", "1"])
    code2, out2, _ = run(capsys, ["gen", "--n", "10", "--k", "2", "--seed", "1"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("x,y,color\n")


def test_gen_rejects_large_k(capsys):
    code, _, err = run(capsys, ["gen", "--n", "10", "--k", "6"])
    assert code == 1
    assert "k <= n/2" in err


def test_solve_strip_width_four(tmp_path, capsys):
    f = tmp_path / "inst.csv"
    f.write_text(STRIP4)
    code, out, _ = run(capsys, ["solve", "--shape", "strip", "--input", str(f)])
    assert code == 0
    assert "width: 4.0" in out


def test_solve_parse_error_exit_1(tmp_path, capsys):
    f = tmp_path / "bad.csv"
    f.write_text("x,y,color\n1,2,1\nbad,5,2\n")
    code, _, err = run(capsys, ["solve", "--shape", "strip", "--input", str(f)])
    assert code == 1
    assert "line 3" in err


def test_solve_rect_matches_reference(tmp_path, capsys):
    ps = generate_instance(16, 3, "clusters", seed=4)
    f = tmp_path / "inst.csv"
    f.write_text(format_instance(ps))
    code, out, _ = run(capsys, ["solve", "--shape", "rect",
                                "--input", str(f), "--json"])
    assert code == 0
    # the CLI runs the pruned walk; the plain walk is the reference
    ref = SolutionReport.for_annulus("rect", max_rbra_reference(ps), "", 0.0)
    got = SolutionReport.from_json(out)
    assert got.width == ref.width
    assert got.geometry == ref.geometry


def test_solve_instance_rect_runs_gap_walk():
    # the package and the CLI load neither the reference walk nor the
    # oracles, so no solve can run them
    src = os.path.dirname(os.path.dirname(rbannulus.__file__))
    probe = ("import sys, rbannulus, rbannulus.cli; "
             "print(sorted(m for m in ('rbannulus.reference', "
             "'rbannulus.oracle') if m in sys.modules))")
    got = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert got.returncode == 0, got.stderr
    assert got.stdout.strip() == "[]"
    ps = generate_instance(16, 3, "uniform", seed=7)
    got, _ = solve_instance("rect", ps, DEFAULT_EPS)
    assert got is not None
    assert got == max_rbra_reference(ps)


def test_solve_circle_inactive_line_constraint(tmp_path, capsys):
    f = tmp_path / "inst.csv"
    f.write_text("x,y,color\n1,0,1\n-1,0,2\n0,5,1\n0,-5,2\n")
    code1, out1, _ = run(capsys, ["solve", "--shape", "circle",
                                  "--input", str(f), "--json"])
    code2, out2, _ = run(capsys, ["solve", "--shape", "circle",
                                  "--input", str(f), "--json",
                                  "--line", "y=0"])
    assert code1 == code2 == 0
    assert json.loads(out1)["width"] == json.loads(out2)["width"] == 4.0


def test_solve_line_requires_circle(tmp_path, capsys):
    f = tmp_path / "inst.csv"
    f.write_text(STRIP4)
    code, _, err = run(capsys, ["solve", "--shape", "strip",
                                "--input", str(f), "--line", "y=0"])
    assert code == 1
    assert "circle" in err and str(f) not in err


def test_solve_non_finite_line_is_bad_input(tmp_path, capsys):
    f = tmp_path / "inst.csv"
    f.write_text("x,y,color\n1,0,1\n-1,0,2\n0,5,1\n0,-5,2\n")
    for spec in ("x-y=inf", "x-y=nan", "x-y=1e400", "1e400x+y=0"):
        code, out, err = run(capsys, ["solve", "--shape", "circle",
                                      "--input", str(f), "--line", spec])
        assert (code, out) == (1, ""), spec
        assert "non-finite" in err, spec


def test_solve_infeasible_exit_2(tmp_path, capsys):
    # collinear with the colors segregated: no gap sees both colors on
    # both of its sides
    f = tmp_path / "inst.csv"
    f.write_text("x,y,color\n0,0,1\n1,0,1\n2,0,2\n3,0,2\n")
    code, out, _ = run(capsys, ["solve", "--shape", "strip",
                                "--input", str(f)])
    assert (code, "infeasible" in out) == (2, True)
    # two coincident points leave no square of positive width
    f.write_text("x,y,color\n0,0,1\n0,0,1\n")
    code, out, _ = run(capsys, ["solve", "--shape", "square",
                                "--input", str(f)])
    assert (code, "infeasible" in out) == (2, True)


def test_solve_names_the_input_only_for_its_own_faults(tmp_path, capsys):
    f = tmp_path / "inst.csv"
    f.write_text("x,y,color\n1,0,1\n-1,0,2\n0,5,1\n0,-5,2\n")
    code, out, err = run(capsys, ["solve", "--shape", "circle",
                                  "--input", str(f), "--line", "xy=1"])
    assert (code, out) == (1, "")
    assert err == "solve: term 'xy' has a bad coefficient in 'xy=1'\n"
    missing = str(tmp_path / "missing.csv")
    code, _, err = run(capsys, ["solve", "--shape", "strip", "--input", missing])
    assert code == 1 and err.startswith("solve: %s: " % missing)


def test_epsilon_env_override(tmp_path, capsys, monkeypatch):
    f = tmp_path / "inst.csv"
    f.write_text("x,y,color\n0,0,1\n0.4,0,1\n")
    code, out, _ = run(capsys, ["solve", "--shape", "strip", "--input", str(f)])
    assert code == 0 and "width: 0.4" in out
    monkeypatch.setenv("RBA_EPSILON", "0.5")
    code, out, _ = run(capsys, ["solve", "--shape", "strip", "--input", str(f)])
    assert code == 2
    monkeypatch.setenv("RBA_EPSILON", "not a number")
    code, _, err = run(capsys, ["solve", "--shape", "strip", "--input", str(f)])
    assert code == 1 and "RBA_EPSILON" in err and str(f) not in err
    for raw in ("inf", "-1"):
        monkeypatch.setenv("RBA_EPSILON", raw)
        code, _, err = run(capsys, ["solve", "--shape", "strip", "--input", str(f)])
        assert code == 1 and "finite and >= 0" in err, raw


def test_check_valid_tampered_and_injected(tmp_path, capsys):
    inst = tmp_path / "inst.csv"
    inst.write_text(STRIP4)
    code, out, _ = run(capsys, ["solve", "--shape", "strip",
                                "--input", str(inst), "--json"])
    assert code == 0
    sol = tmp_path / "sol.json"
    sol.write_text(out)
    code, _, _ = run(capsys, ["check", "--input", str(inst),
                              "--solution", str(sol)])
    assert code == 0

    doc = json.loads(out)
    doc["width"] = doc["width"] + 0.5
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["check", "--input", str(inst),
                                "--solution", str(tampered)])
    assert code == 1 and "width" in err

    poked = tmp_path / "poked.csv"
    poked.write_text(STRIP4 + "3,0,1\n")  # lands in the strip interior
    code, _, err = run(capsys, ["check", "--input", str(poked),
                                "--solution", str(sol)])
    assert code == 1 and "not a valid" in err


@pytest.mark.parametrize("body", [
    '5',
    '{"shape": "strip", "width": null, "geometry": {}}',
    '{"shape": "strip", "width": 1.0, "geometry": 5}',
    '{"shape": "strip", "width": 1.0, "geometry": '
    '{"orientation": "vertical", "lo": "0", "hi": "1"}}',
    '{"shape": "circle", "width": 1.0, "geometry": '
    '{"center_x": null, "center_y": 0.0, "r_in": 1.0, "r_out": 2.0}}',
], ids=["not-object", "null-width", "scalar-geometry", "string-sides",
        "null-center"])
def test_check_malformed_report_is_bad_input(body, tmp_path, capsys):
    inst = tmp_path / "inst.csv"
    inst.write_text(STRIP4)
    sol = tmp_path / "sol.json"
    sol.write_text(body)
    code, out, err = run(capsys, ["check", "--input", str(inst),
                                  "--solution", str(sol)])
    assert code == 1 and out == ""
    assert err.startswith("check: ")


def test_svg_one_annulus_group_n_glyphs(tmp_path, capsys):
    inst = tmp_path / "inst.csv"
    ps = generate_instance(18, 3, "rings", seed=3)
    inst.write_text(format_instance(ps))
    out_svg = tmp_path / "out.svg"
    code, _, _ = run(capsys, ["solve", "--shape", "circle",
                              "--input", str(inst), "--svg", str(out_svg)])
    assert code == 0
    text = out_svg.read_text()
    assert text.count('<g class="annulus"') == 1
    assert text.count('class="pt ') == 18
    assert text.startswith("<svg ")


def test_svg_unwritable_path_is_bad_input(tmp_path, capsys):
    inst = tmp_path / "inst.csv"
    inst.write_text(STRIP4)
    code, out, err = run(capsys, ["solve", "--shape", "strip", "--input",
                                  str(inst), "--svg",
                                  str(tmp_path / "missing" / "out.svg")])
    assert code == 1 and out == ""
    assert err.startswith("solve: ") and "out.svg" in err


def test_svg_infinite_sides_dashed():
    ps = PointSet.build([(0, 0, 1), (1, 0, 2), (5, 0, 1), (6, 0, 2)])
    from rbannulus import max_rbes
    text = render_svg(ps, max_rbes(ps, "vertical"))
    assert "stroke-dasharray" in text
    text2 = render_svg(ps, None)
    assert text2.count('<g class="annulus"') == 1
    with pytest.raises(ValueError, match="cannot render"):
        render_svg(ps, object())


def test_svg_draws_strips_and_corridors_from_their_boxes():
    # a corridor's outer and inner boxes have two finite sides each, a
    # strip's one: every side runs to infinity, so every line is dashed
    ps = PointSet.build([(0, 0, 1), (3, 1, 2), (1, 4, 1), (5, 5, 2)], 2)
    anns = [rbannulus.Strip(o, 1.0, 2.5) for o in ("vertical", "horizontal")]
    anns += [rbannulus.LCorridor(o, 2.0, 3.0, 1.0) for o in rbannulus.L_ORIENTATIONS]
    for ann in anns:
        text = render_svg(ps, ann)
        want = 2 if isinstance(ann, rbannulus.Strip) else 4
        assert text.count("<line ") == text.count("stroke-dasharray") == want, ann


def test_bench_deterministic_widths(capsys):
    argv = ["bench", "--shape", "strip", "--sizes", "30,60",
            "--trials", "1", "--seed", "7"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1.splitlines()[0] == "n,k,mean_ms,width"
    w1 = [line.split(",")[3] for line in out1.splitlines()[1:3]]
    w2 = [line.split(",")[3] for line in out2.splitlines()[1:3]]
    assert w1 == w2
    assert out1.splitlines()[-1].startswith("# slope ")


def test_bench_json_report(capsys, tmp_path):
    path = tmp_path / "bench.json"
    argv = ["bench", "--shape", "strip", "--sizes", "30,60", "--trials", "2",
            "--seed", "7", "--json", str(path)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    got = json.loads(path.read_text())
    assert (got["shape"], got["k"], got["dist"], got["seed"], got["trials"]) == (
        "strip", 3, "uniform", 7, 2)
    assert [row["n"] for row in got["sizes"]] == [30, 60]
    for row, line in zip(got["sizes"], out.splitlines()[1:3]):
        n, k, mean_ms, width = line.split(",")
        assert 0 <= row["min_ms"] <= row["mean_ms"]
        assert "%.3f" % row["mean_ms"] == mean_ms
        assert repr(row["width"]) == width
    assert out.splitlines()[-1] == "# slope %.3f" % got["slope"]
    # where it was measured, as tools/answers.py's "#" line records it
    assert (got["python"], got["numpy"]) == (platform.python_version(), np.__version__)
    cpu = platform.processor()
    if not cpu and os.path.exists("/proc/cpuinfo"):
        # Linux leaves platform.processor() empty; the model is in cpuinfo
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        cpu = models[0] if models else ""
    assert (got["machine"], got["processor"]) == (platform.machine(), cpu)


def test_bench_repeated_size_fits_no_slope(capsys, tmp_path):
    # one distinct size gives no line to fit: no slope, as for one size
    path = tmp_path / "bench.json"
    argv = ["bench", "--shape", "strip", "--sizes", "30,30", "--trials", "1",
            "--json", str(path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv)
    assert code == 0 and err == "" and not caught
    assert len(out.splitlines()) == 3
    assert not any(line.startswith("# slope") for line in out.splitlines())
    assert json.loads(path.read_text())["slope"] is None


def test_bench_warms_up_each_size(capsys, monkeypatch):
    # one untimed solve ahead of each size's timed trials
    solved = []

    def counting(shape, pointset, eps, line=None):
        solved.append(pointset.n)
        return solve_instance(shape, pointset, eps, line=line)

    monkeypatch.setattr(rbannulus.cli, "solve_instance", counting)
    code, out, _ = run(capsys, ["bench", "--shape", "strip", "--sizes", "30,60",
                                "--trials", "2"])
    assert code == 0 and len(out.splitlines()) == 4
    assert solved == [30] * 3 + [60] * 3


def test_bench_json_unwritable_path_is_bad_input(capsys, tmp_path):
    argv = ["bench", "--shape", "strip", "--sizes", "30", "--trials", "1",
            "--json", str(tmp_path / "missing" / "bench.json")]
    code, _, err = run(capsys, argv)
    assert code == 1 and err.startswith("bench: ")


@pytest.mark.parametrize("flags", [
    ["--trials", "0"], ["--sizes", "1"], ["--k", "0"], ["--sizes", ","],
])
def test_bench_bad_schedule_is_bad_input(flags, capsys):
    argv = ["bench", "--shape", "strip", "--sizes", "30"] + flags
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("bench: ")


def test_module_entry_point(tmp_path):
    inst = tmp_path / "inst.csv"
    inst.write_text(STRIP4)
    got = subprocess.run(
        [sys.executable, "-m", "rbannulus", "solve", "--shape", "strip",
         "--input", str(inst)],
        capture_output=True, text=True)
    assert got.returncode == 0
    assert "width: 4.0" in got.stdout


@pytest.mark.parametrize("shape,dist", [
    ("strip", "clusters"), ("lcorridor", "clusters"), ("square", "clusters"),
    ("rect", "clusters"), ("circle", "rings"),
])
def test_round_trip_per_shape(shape, dist, tmp_path, capsys):
    for seed in range(3):
        code, out, _ = run(capsys, ["gen", "--n", "14", "--k", "3",
                                    "--dist", dist, "--seed", str(seed)])
        assert code == 0
        inst = tmp_path / ("%s_%d.csv" % (shape, seed))
        inst.write_text(out)
        code, out, _ = run(capsys, ["solve", "--shape", shape,
                                    "--input", str(inst), "--json"])
        assert code == 0, (shape, seed)
        sol = tmp_path / ("%s_%d.json" % (shape, seed))
        sol.write_text(out)
        code, _, _ = run(capsys, ["check", "--input", str(inst),
                                  "--solution", str(sol)])
        assert code == 0, (shape, seed)

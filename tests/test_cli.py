import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capax
from capax import capacities, domains, tower
from capax.cli import build_parser, main, parse_domain
from capax.errors import CapaxError


PERF_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


@pytest.fixture
def fig_file(tmp_path):
    path = tmp_path / "fig.json"
    path.write_text(json.dumps({
        "kind": "polygon", "orientation": "convex",
        "vertices": [["0", "0"], ["4", "0"], ["4", "1"], ["2", "3"], ["0", "4"]],
    }))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParseDomain:
    def test_shorthands(self):
        assert parse_domain("ball:3").a == 3
        d = parse_domain("ellipsoid:1,2")
        assert (d.a, d.b) == (1, 2)
        assert parse_domain("square:2").kind == "polygon"
        assert parse_domain("quarter_disk:1").curve == "quarter_disk"
        wl = parse_domain("weights:5;1,1,1")
        assert wl.head == 5 and wl.weights == (1, 1, 1)

    def test_float_constants(self):
        d = parse_domain("ellipsoid:1,phi", backend="float")
        assert float(d.b) == pytest.approx(1.618033988749895)


class TestCommands:
    def test_weights_fig(self, capsys, fig_file):
        code, out = run(capsys, "weights", "--domain", f"@{fig_file}")
        assert code == 0
        j = json.loads(out)
        assert j["head"] == "5" and j["weights"] == ["1", "1", "1"]

    def test_weights_ellipsoid_and_ball(self, capsys):
        code, out = run(capsys, "weights", "--domain", "ellipsoid:1,2")
        assert code == 0 and json.loads(out)["weights"] == ["1", "1"]
        code, out = run(capsys, "weights", "--domain", "ball:3")
        j = json.loads(out)
        assert code == 0 and j["head"] == "3" and j["weights"] == []

    def test_weights_of_a_small_disk_are_complete(self, capsys):
        # a curve's grid polygon is rational, so its expansion ends with no
        # threshold; an absolute 1e-9 dropped every piece of the 10^-12 disk
        trees = []
        for r in ("1", "1/1000000000000"):
            code, out = run(capsys, "weights", "--domain", f"quarter_disk:{r}")
            assert code == 0
            trees.append(json.loads(out))
        unit, small = trees
        assert len(small["weights"]) == len(unit["weights"]) > 0
        assert small["truncation"]["complete"] and small["truncation"]["dropped_pieces"] == 0

    def test_capacities_csv(self, capsys):
        code, out = run(capsys, "capacities", "--domain", "square:1",
                        "--kmax", "8", "--format", "csv")
        assert code == 0
        vals = [line.split(",")[1] for line in out.strip().splitlines()[2:]]
        assert vals == ["0", "1", "2", "2", "3", "3", "4", "4", "4"]
        code, out = run(capsys, "capacities", "--domain", "ball:1",
                        "--kmax", "6", "--format", "csv")
        vals = [line.split(",")[1] for line in out.strip().splitlines()[2:]]
        assert vals == ["0", "1", "1", "2", "2", "2", "3"]

    def test_capacities_oracle_verified(self, capsys, fig_file):
        code, out = run(capsys, "capacities", "--domain", f"@{fig_file}",
                        "--kmax", "1", "--oracle")
        assert code == 0
        j = json.loads(out)
        assert j["values"] == ["0", "4"]
        assert j["meta"]["oracle"] == "verified"

    def test_oracle_compares_exact_values_exactly(self, capsys, monkeypatch):
        # on a domain of size 1e-12 an absolute margin of 1e-9 would hide this
        real = capacities.tower_capacities

        def bumped(tw, kmax):
            return [capacities.TowerCapacityResult(r.value + Fraction(1, 10**20), r.bracket)
                    for r in real(tw, kmax)]

        monkeypatch.setattr(capacities, "tower_capacities", bumped)
        code = main(["capacities", "--domain", "ball:1/1000000000000", "--kmax", "5", "--oracle"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "oracle mismatch at k=1" in captured.err

    def test_eps_backend_sets_the_tolerance_of_a_json_file(self, capsys, tmp_path):
        # a float box with one corner 1e-10 high is a box within eps 1e-9 only
        box = {"kind": "polygon", "orientation": "convex", "backend": "float",
               "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0 + 1e-10], [0.0, 1.0]]}
        plain, own = tmp_path / "box.json", tmp_path / "box_eps.json"
        plain.write_text(json.dumps(box))
        own.write_text(json.dumps(dict(box, eps=1e-9)))
        methods = {}
        for name, spec, eps in [("default", f"@{plain}", "1e-9"), ("flag", f"@{plain}", "1e-12"),
                                ("shorthand", f"polygon:{json.dumps(box)}", "1e-12"),
                                ("file-wins", f"@{own}", "1e-12")]:
            code, out = run(capsys, "capacities", "--domain", spec, "--kmax", "5",
                            "--eps-backend", eps)
            assert code == 0
            methods[name] = json.loads(out)["method"]
        assert methods == {"default": "polydisk_closed_form", "flag": "decomposition",
                           "shorthand": "decomposition", "file-wins": "polydisk_closed_form"}

    def test_bounds_ball(self, capsys):
        code, out = run(capsys, "bounds", "--domain", "ball:1")
        j = json.loads(out)
        assert code == 0 and j["band"] == [-1.5, -0.5]

    def test_tower_square(self, capsys):
        code, out = run(capsys, "tower", "--domain", "square:1", "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()[2:]
        assert [r.split(",")[1] for r in rows] == ["4", "3", "2"]

    def test_errors_csv(self, capsys):
        code, out = run(capsys, "errors", "--domain", "ball:1", "--kmax", "16",
                        "--format", "csv")
        assert code == 0
        row = out.strip().splitlines()[4].split(",")  # k = 2
        assert row[0] == "2" and float(row[1]) == pytest.approx(-1.0)
        assert float(row[2]) == -1.5 and float(row[3]) == -0.5

    def test_errors_json_window(self, capsys):
        code, out = run(capsys, "errors", "--domain", "ball:1",
                        "--kmax", "4000", "--window", "1000:4000")
        assert code == 0
        j = json.loads(out)
        assert j["proven_convergent"] is False
        assert j["window"]["k0"] == 1000
        assert -1.51 <= j["window"]["min"] <= -1.45
        assert j["N_rational_edges"] == 1

    def test_errors_default_window_at_kmax_zero(self, capsys):
        # the default window stays inside [0, kmax]
        code, out = run(capsys, "errors", "--domain", "ball:1", "--kmax", "0")
        assert code == 0
        j = json.loads(out)["window"]
        assert (j["k0"], j["k1"], j["min"], j["max"]) == (0, 0, 0.0, 0.0)

    def test_obstruct_exit_codes(self, capsys):
        code, out = run(capsys, "obstruct", "--from", "ellipsoid:1,phi",
                        "--to", "ball:sqrt_phi", "--kmax", "200",
                        "--backend", "float")
        assert code == 2
        j = json.loads(out)
        assert j["verdict"] == "OBSTRUCTED"
        assert any(w["criterion"] == "affine_length" for w in j["witnesses"])
        code, _ = run(capsys, "obstruct", "--from", "ball:1", "--to", "ball:1")
        assert code == 0

    def test_obstruct_quarter_disk_volume_witness(self, capsys):
        # a curve's area tolerance: eps and the formula's rounding, relative to the area
        code, out = run(capsys, "obstruct", "--from", "quarter_disk:1", "--to", "ball:1")
        j = json.loads(out)
        assert (code, j["verdict"]) == (2, "OBSTRUCTED")
        assert j["volumes"] == {"equal_within_tolerance": False,
                                "from": 0.7853981633974483, "to": 0.5}
        assert j["witnesses"][-1] == {"criterion": "volume", "from_value": 0.7853981633974483,
                                      "k": None, "slack": 1.7853984775567137e-09,
                                      "to_value": 0.5}
        assert [w["k"] for w in j["witnesses"][:-1]] == [2, 4, 5, 6, 7, 8, 9, 10]

    @pytest.mark.parametrize("to", ["square:1", "ellipsoid:1,2"])
    def test_obstruct_float_square_is_inadmissible(self, capsys, to):
        # a float polygon: the shoelace area tolerance, and no scaled-lattice
        # test, so its rational-sloped edges leave it inadmissible
        code, out = run(capsys, "obstruct", "--from", "square:1", "--to", to,
                        "--backend", "float", "--kmax", "10")
        j = json.loads(out)
        assert (code, j["verdict"], j["witnesses"]) == (0, "INCONCLUSIVE", [])
        assert j["admissible"] == {"from": False, "to": to != "square:1"}
        assert j["volumes"] == {"equal_within_tolerance": True, "from": 1.0, "to": 1.0}
        assert j["notes"][-1] == ("equal volumes but inadmissible domain: affine-length "
                                  "criterion not applied")

    def test_errors_float_ball_has_no_rank(self, capsys):
        # the rational rank of float edge lengths is not decided
        code, out = run(capsys, "errors", "--domain", "ball:1", "--backend", "float",
                        "--kmax", "20")
        j = json.loads(out)
        assert code == 0
        assert (j["N_rational_edges"], j["v_rank"], j["limit"]) == (1, None, None)
        assert j["band"] == [-1.5, -0.5] and j["proven_convergent"] is False

    def test_error_exit_is_one(self, capsys):
        code = main(["capacities", "--domain", "nonsense:1"])
        assert code == 1

    def test_selfcheck(self, capsys):
        code, out = run(capsys, "selfcheck")
        assert code == 0
        assert "FAIL" not in out

    def test_quadratic_backend_file(self, capsys, tmp_path):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({
            "kind": "polygon", "orientation": "concave", "field_d": 5,
            "vertices": [["0", "0"], ["1", "0"], ["0", "1/2+1/2*sqrt"]],
        }))
        code, out = run(capsys, "weights", "--domain", f"@{path}",
                        "--eps", "1e-3")
        assert code == 0
        j = json.loads(out)
        assert j["backend"] == "sqrt:5"
        assert j["weights"][0] == "1"
        assert j["weights"][1] == "-1/2+1/2*sqrt"  # the golden ratio minus one
        assert j["truncation"]["complete"] is False


class TestInputBoundary:
    @pytest.mark.parametrize("argv", [
        ["--domain", "ball:-1"],
        ["--domain", "ball:1", "--kmax", "-3"],
        ["--domain", "ball:"],
        ["--domain", "ellipsoid:1"],
        ["--domain", "ball:abc"],
        ["--domain", "ball:1", "--backend", "sqrt:4"],
        ["--domain", "@{missing}"],
        ["--domain", "ball:1", "--backend", "foo"],
        ["--domain", "ball:1", "--backend", "sqrt:\u00b2"],
        ["--domain", 'polygon:{"kind":"polygon","vertices":5}'],
        ["--domain", 'polygon:{"kind":"polygon","orientation":"flat",'
                     '"vertices":[["0","0"],["1","0"],["0","1"]]}'],
        # sum w^2 >= head^2 leaves no area: the convex scan never certifies
        ["--domain", "weights:3;2,2,2"],
        ["--domain", "weights:3;1,1,1,1,1,1,1,1,1"],
        # squarefreeness is trial division: a field over the bound is refused at once
        ["--domain", "ball:1", "--backend", "sqrt:1000000000000000000003"],
        ["--domain", "ball:1", "--backend", "sqrt:" + "1" * 5000],
        # exact irrational data needs truncation limits
        ["--domain", 'polygon:{"kind":"polygon","field_d":5,'
                     '"vertices":[["0","0"],["1","0"],["0","1/2+1/2*sqrt"]]}'],
        # exact data past the float range is refused where it is parsed
        ["--domain", "ball:1e400"],
        ["--domain", "square:1e200"],
        ["--domain", "weights:1e200;1"],
        ["--domain", "ellipsoid:1,1e400"],
    ], ids=["negative-ball", "negative-kmax", "no-argument", "one-leg",
            "not-a-number", "square-field", "missing-file", "unknown-backend",
            "superscript-field", "vertices-not-a-list", "unknown-orientation",
            "over-packed-weights", "weights-fill-the-head", "huge-field",
            "overlong-field", "golden-without-eps", "huge-ball", "huge-square",
            "huge-head", "huge-leg"])
    def test_bad_input_exits_one_with_message(self, capsys, tmp_path, argv):
        argv = [a.format(missing=tmp_path / "missing.json") if a.startswith("@") else a
                for a in argv]
        code = main(["capacities", "--kmax", "5"] + argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("capax: ")

    @pytest.mark.parametrize("spec", ["3;2,2,9/10", "3;2,2,99/100", "3;2,2,1/2", "3;2,2", "-3;"])
    def test_weight_list_that_is_no_ball_packing_exits_one(self, capsys, spec):
        # these once printed 0, -9/10, ... (and 0, -3, -3, -6 for -3;)
        code = main(["capacities", "--domain", f"weights:{spec}", "--kmax", "5"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("capax: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv,message", [
        (["errors", "--domain", "ball:1", "--kmax", "20", "--window", "abc"], "--window"),
        (["errors", "--domain", "ball:1", "--kmax", "20", "--window", "10"], "--window"),
        # checked before the series is computed, in CSV mode too
        (["errors", "--domain", "ball:1", "--kmax", "10", "--window", "x", "--format", "csv"],
         "--window"),
        (["errors", "--domain", "ball:1", "--kmax", "10", "--window", "5:2", "--format", "csv"],
         "window [5,2] not inside [0,10]"),
        (["capacities", "--domain", "ball:1", "--out", "{missing}"], "cannot write"),
        (["bounds", "--domain", "weights:5;1,1"], "axis extents"),
        (["errors", "--domain", "ellipsoid:1e200,1e200"], "out of range"),
        (["tower", "--domain", "quarter_disk:1"],
         "tower and --oracle take polygons and ellipsoids, not curve domains"),
        (["tower", "--domain", "weights:3;1,1"], "a weight list has no tower"),
        (["capacities", "--domain", "weights:3;1,1", "--oracle"], "a weight list has no tower"),
        (["capacities", "--domain", "superellipse:2000,2", "--kmax", "3"],
         "not a positive finite float"),
        (["capacities", "--domain", "superellipse:2000,0.5", "--kmax", "3"],
         "not a positive finite float"),
        (["errors", "--domain", "ball:1e300", "--backend", "float", "--kmax", "3"],
         "float range"),
        (["obstruct", "--from", "ball:1e300", "--to", "ball:1", "--backend", "float",
          "--kmax", "3"], "float range"),
        # the closed forms check their largest value before they compute
        (["capacities", "--domain", "ball:1e306", "--backend", "float", "--kmax", "100000"],
         "float range"),
        (["capacities", "--domain", "square:1e307", "--backend", "float", "--kmax", "100000"],
         "float range"),
        (["capacities", "--domain", "ellipsoid:1e307,1e306", "--backend", "float",
          "--kmax", "100000"], "float range"),
        # refused before any work starts
        (["capacities", "--domain", "ball:1", "--kmax", str(capacities.MAX_KMAX + 1)],
         f"kmax must be between 0 and {capacities.MAX_KMAX}"),
        # a rational expansion ends, deeper than the default depth (braces
        # doubled for str.format)
        (["weights", "--domain", 'polygon:{{"kind":"polygon","orientation":"convex",'
                                 '"vertices":[["0","0"],["100","0"],["0","1/100"]]}}'],
         "(--depth) or set a weight threshold (--eps)"),
        # a nan or negative threshold never drops a piece: the golden triangle
        # ran its expansion to depth 4096 and then folded for minutes
        (["capacities", "--domain", f"@{PERF_INPUTS / 'golden_convex.json'}", "--kmax", "5",
          "--eps", "-1"], "weight threshold must be >= 0"),
        (["weights", "--domain", "square:1", "--eps", "nan"], "weight threshold must be >= 0"),
        (["weights", "--domain", "square:1", "--depth", "-1"], "depth limit must be >= 0"),
        # a nan input tolerance makes every float comparison false
        (["capacities", "--domain", "ball:1", "--eps-backend", "nan"],
         "input tolerance eps must be finite"),
        (["capacities", "--domain",
          'polygon:{{"kind":"ellipsoid","a":1,"b":2,"backend":"float","eps":"nan"}}'],
         "input tolerance eps must be finite"),
        # a negative one was taken as its absolute value, or refused as a zero edge
        (["capacities", "--domain", "ball:1", "--backend", "float", "--eps-backend", "-1"],
         "input tolerance eps must be finite and >= 0"),
        (["capacities", "--domain",
          'polygon:{{"kind":"ellipsoid","a":1,"b":2,"backend":"float","eps":-0.1}}'],
         "input tolerance eps must be finite and >= 0"),
        # weights validates a curve's descriptor before it polygonises it
        (["weights", "--domain", "quarter_disk:1", "--eps-backend", "nan"],
         "input tolerance eps must be finite"),
        (["weights", "--domain", "quarter_disk:1", "--eps-backend", "-1"],
         "input tolerance eps must be finite and >= 0"),
        # usage errors: argparse's own exit code, 2, is capax's OBSTRUCTED
        (["capacities", "--domain", "ball:1", "--bogus"], "unrecognized arguments: --bogus"),
        (["capacities", "--domain", "ball:1", "--kmax", "abc"], "argument --kmax"),
        (["capacities"], "required: --domain"),
        # a command takes only the options it reads
        (["obstruct", "--from", "ball:1", "--to", "ball:2", "--format", "csv", "--out", "{out}"],
         "unrecognized arguments: --format csv"),
        (["selfcheck", "--out", "{out}"], "unrecognized arguments: --out"),
        (["bounds", "--domain", "ball:1", "--window", "9:1", "--out", "{out}"],
         "unrecognized arguments: --window 9:1"),
        (["weights", "--domain", "ball:1", "--kmax", "5", "--out", "{out}"],
         "unrecognized arguments: --kmax 5"),
        (["tower", "--domain", "square:1", "--kmax", "5", "--out", "{out}"],
         "unrecognized arguments: --kmax 5"),
        (["errors", "--domain", "ball:1", "--threads", "2", "--out", "{out}"],
         "unrecognized arguments: --threads 2"),
        (["capacities", "--domain", "ball:1", "--window", "1:2", "--out", "{out}"],
         "unrecognized arguments: --window 1:2"),
        # a flag in full is not the abbreviation of another: not --eps-backend
        (["bounds", "--domain", "ball:1", "--eps", "1e-3", "--out", "{out}"],
         "unrecognized arguments: --eps 1e-3"),
        # a JSON document names its own backend: a flag may only repeat it
        (["capacities", "--domain", f"@{PERF_INPUTS / 'fig.json'}", "--backend", "float"],
         "--backend float disagrees with the document's backend exact"),
        (["capacities", "--domain",
          'polygon:{{"kind":"ellipsoid","a":1,"b":2,"backend":"float"}}', "--backend", "sqrt:5"],
         "--backend sqrt:5 disagrees with the document's backend float"),
    ], ids=["window-not-a-number", "window-one-number", "csv-window-not-a-number",
            "csv-window-reversed", "out-in-missing-dir",
            "bounds-of-weight-list", "huge-ellipsoid", "tower-of-a-curve",
            "tower-of-a-weight-list", "oracle-of-a-weight-list", "superellipse-overflow",
            "superellipse-underflow", "errors-past-float-range", "obstruct-infinite-volume",
            "ball-past-float-range", "square-past-float-range", "ellipsoid-past-float-range",
            "kmax-past-the-ceiling", "rational-depth", "golden-negative-eps", "nan-eps",
            "negative-depth", "nan-eps-backend", "json-nan-eps", "negative-eps-backend",
            "json-negative-eps", "weights-curve-nan-eps-backend",
            "weights-curve-negative-eps-backend",
            "unknown-flag", "kmax-not-a-number", "missing-domain",
            "obstruct-format", "selfcheck-out", "bounds-window", "weights-kmax", "tower-kmax",
            "errors-threads", "capacities-window", "bounds-eps",
            "backend-against-a-file", "backend-against-a-polygon-spec"])
    def test_bad_command_exits_one_with_message(self, capsys, tmp_path, argv, message):
        out_file = tmp_path / "out.json"
        argv = [a.format(missing=tmp_path / "no-such-dir" / "x.json", out=out_file)
                for a in argv]
        kmax = argv[argv.index("--kmax") + 1] if "--kmax" in argv else ""
        eps = float(argv[argv.index("--eps") + 1]) if "--eps" in argv else 0.0
        if (kmax.isdigit() and int(kmax) > capacities.MAX_KMAX) or eps < 0:
            # without its guard this call would allocate gigabytes or run for
            # minutes: it runs in a child whose address space and time are capped
            code, out, err = main_in_child(argv)
        else:
            code = main(argv)
            out, err = capsys.readouterr()
        assert code == 1
        assert out == "" and not out_file.exists()
        assert err.startswith("capax: ") and err.count("\n") == 1
        assert message in err

    def test_each_command_takes_the_options_it_reads(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
               for name, p in sub.choices.items()}
        want = {
            "weights": "--domain --depth --eps --backend --eps-backend --format --out",
            "capacities": "--domain --kmax --depth --eps --backend --eps-backend --format "
                          "--threads --out --oracle",
            "errors": "--domain --kmax --depth --eps --backend --eps-backend --format "
                      "--window --out",
            "bounds": "--domain --backend --eps-backend --format --out",
            "tower": "--domain --depth --eps --backend --eps-backend --format --out",
            "obstruct": "--from --to --kmax --depth --eps --backend --eps-backend --out",
            "selfcheck": "",
        }
        assert got == {name: set(flags.split()) for name, flags in want.items()}
        assert sum(map(len, got.values())) == 46

    @pytest.mark.parametrize("spec,backend", [
        (f"@{PERF_INPUTS / 'fig.json'}", "exact"),
        ('polygon:{"kind":"ellipsoid","a":1,"b":2,"backend":"float"}', "float"),
        ('polygon:{"kind":"ellipsoid","a":"1","b":"2","field_d":5}', "sqrt:5"),
    ])
    def test_backend_flag_that_agrees_with_the_document(self, capsys, spec, backend):
        _, plain = run(capsys, "capacities", "--domain", spec, "--kmax", "20")
        code, flagged = run(capsys, "capacities", "--domain", spec, "--kmax", "20",
                            "--backend", backend)
        assert code == 0 and flagged == plain
        assert json.loads(flagged)["backend"] == backend

    def test_depth_alone_truncates_exact_data(self, capsys, fig_file):
        # a depth limit the caller sets truncates rational data without an eps
        code, out = run(capsys, "weights", "--domain", "square:1", "--depth", "0")
        assert code == 0
        tr = json.loads(out)["truncation"]
        assert not tr["complete"]
        assert (tr["dropped_pieces"], tr["dropped_tail_sum"], tr["dropped_tail_sq"]) == (2, "2", "2")
        _, out = run(capsys, "capacities", "--domain", f"@{fig_file}", "--kmax", "8")
        exact = [Fraction(v) for v in json.loads(out)["values"]]
        code, out = run(capsys, "capacities", "--domain", f"@{fig_file}", "--kmax", "8",
                        "--depth", "1")
        assert code == 0
        j = json.loads(out)
        for k, c in enumerate(exact):
            v = float(Fraction(j["values"][k]))
            assert v - j["lower_slack"][k] <= c <= v + j["upper_slack"][k]

    @pytest.mark.parametrize("pair", [("weights:5;1,1", "weights:5;1,1"),
                                      ("weights:1;", "ball:1")], ids=["two-lists", "list-ball"])
    def test_obstruct_weight_list_skips_affine_length(self, capsys, pair):
        # equal volumes, but a weight list has no a, b for the affine-length criterion
        code, out = run(capsys, "obstruct", "--from", pair[0], "--to", pair[1], "--kmax", "10")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "INCONCLUSIVE"
        assert report["volumes"]["equal_within_tolerance"]
        assert any("affine-length criterion not applied" in n for n in report["notes"])

    @pytest.mark.parametrize("eps", ["1e-6", "1e-8"])
    def test_float_int_zeros_match_string_zeros(self, capsys, tmp_path, eps):
        # the descriptor's backend picks the float recursion, whatever type
        # the JSON zeros parse to
        outs = []
        for zero in (0, "0"):
            path = tmp_path / "golden-float.json"
            path.write_text(json.dumps({
                "kind": "polygon", "orientation": "convex", "backend": "float",
                "eps": 1e-12,
                "vertices": [[zero, zero], [1, zero], [zero, 1.618033988749895]]}))
            code, out = run(capsys, "capacities", "--domain", f"@{path}",
                            "--backend", "float", "--eps", eps)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_float_backend_convex_weight_list(self, capsys):
        code, out = run(capsys, "capacities", "--domain", "weights:5;1,1,1",
                        "--kmax", "30", "--backend", "float")
        assert code == 0
        _, exact = run(capsys, "capacities", "--domain", "weights:5;1,1,1", "--kmax", "30")
        got = [float(v) for v in json.loads(out)["values"]]
        assert got == [float(Fraction(v)) for v in json.loads(exact)["values"]]

    @pytest.mark.parametrize("a, b", [("10", "1/10"), ("100", "1/100")])
    def test_rational_triangle_is_an_ellipsoid(self, capsys, a, b):
        # the weight route walked 200,000 complement indices for E(10, 1/10)
        # and passed the default depth for E(100, 1/100)
        spec = json.dumps({"kind": "polygon", "orientation": "convex",
                           "vertices": [["0", "0"], [a, "0"], ["0", b]]})
        t0 = time.monotonic()
        code, out = run(capsys, "capacities", "--domain", f"polygon:{spec}", "--kmax", "20")
        assert code == 0 and time.monotonic() - t0 < 1.0
        _, want = run(capsys, "capacities", "--domain", f"ellipsoid:{a},{b}", "--kmax", "20")
        assert json.loads(out)["values"] == json.loads(want)["values"]


NUMBERS = st.sampled_from(["0", "1", "2", "3/2", "-1", "1/0", "x", "", "1e3", "0.5",
                           "phi", "1/2+1/2*sqrt", "1*sqrt", 0, 1, 2, 1.5, 0.0, -2, None, True])
JSON_VALUES = st.recursive(
    NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=4),
    max_leaves=10)
DESCRIPTORS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["polygon", "ellipsoid", "curve", "weight_list", "disk", 3])},
    optional={
        "vertices": st.lists(st.tuples(NUMBERS, NUMBERS).map(list), max_size=6) | JSON_VALUES,
        "orientation": st.sampled_from(["convex", "concave", "flat", None, 1]),
        "backend": st.sampled_from(["exact", "float", "sqrt:5", "sqrt:4", "foo", None, 5]),
        "field_d": st.sampled_from([5, 4, 0, -3, "5", 1.5, None]),
        "eps": NUMBERS, "a": NUMBERS, "b": NUMBERS, "r": NUMBERS, "p": NUMBERS,
        "name": st.sampled_from(["quarter_disk", "superellipse", "x", None]),
        "head": NUMBERS, "weights": st.lists(NUMBERS, max_size=4) | JSON_VALUES,
    })
ARGS = (st.text(alphabet="0123456789/-.,;:eE+ *sqrtphi{}[]\"@", max_size=12)
        | st.lists(st.sampled_from(["0", "1", "2", "3/2", "-1", "1/0", "x", "", "phi", "1e3",
                                    "0.5", "1+1*sqrt"]), max_size=5).map(",".join)
        | st.tuples(st.sampled_from(["5", "1", "0", ""]),
                    st.lists(st.sampled_from(["1", "2", "1/2", "-1", "x", ""]),
                             max_size=4).map(",".join)).map(";".join))


def _typed_or_descriptor(parse):
    """parse() returns a descriptor that validates or raises CapaxError;
    any other exception fails the draw."""
    try:
        d = parse()
    except CapaxError:
        return
    assert isinstance(d, domains.DomainDescriptor)
    try:
        domains.validate(d)
    except CapaxError:
        pass


class TestFuzz:
    """Malformed specs and JSON shapes end in a descriptor or a CapaxError."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(obj=DESCRIPTORS | JSON_VALUES)
    def test_descriptor_from_json(self, obj):
        _typed_or_descriptor(lambda: domains.descriptor_from_json(obj))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["ball", "ellipsoid", "square", "quarter_disk", "superellipse",
                                 "weights", "polygon", "nonsense", ""]),
           sep=st.sampled_from([":", "", "@"]), rest=ARGS,
           backend=st.sampled_from(["exact", "float", "sqrt:5", "sqrt:4", "foo", "sqrt:",
                                    "sqrt:x"]))
    def test_parse_domain(self, kind, sep, rest, backend):
        _typed_or_descriptor(lambda: parse_domain(kind + sep + rest, backend))


def child_env():
    """The environment for a child Python that imports this capax first."""
    src = str(Path(capax.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def main_in_child(argv):
    """capax.cli.main(argv) in a child Python whose address space is capped
    at 1 GB: its exit code, stdout and stderr."""
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "import capax.cli\n"
              f"sys.exit(capax.cli.main({argv!r}))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestOracleRun:
    def test_builds_one_enum_context(self, capsys, monkeypatch, fig_file):
        built = []

        class Counting(capacities._EnumContext):
            def __init__(self, s):
                built.append(s.n)
                super().__init__(s)

        monkeypatch.setattr(capacities, "_EnumContext", Counting)
        code, out = run(capsys, "capacities", "--domain", f"@{fig_file}",
                        "--kmax", "20", "--oracle")
        assert code == 0 and json.loads(out)["meta"]["oracle"] == "verified"
        assert len(built) == 1

    def test_p6_oracle_at_kmax_1000(self, capsys):
        # the oracle's reach: the budget prune keeps this series under a second
        code, out = run(capsys, "capacities", "--domain", f"@{PERF_INPUTS / 'p6.json'}",
                        "--kmax", "1000", "--oracle")
        assert code == 0 and json.loads(out)["meta"]["oracle"] == "verified"

    def test_oracle_verifies_at_the_blowup_limit(self):
        # the triangle (0,0), (n,0), (0,1) expands into n weights, one blowup
        # each, and the nef search recurses once per blowup: at the limit it
        # still runs within Python's default frame limit
        n = tower.MAX_BLOWUPS
        spec = json.dumps({"kind": "polygon", "orientation": "convex",
                           "vertices": [[0, 0], [n, 0], [0, 1]]})
        code, out, err = main_in_child(["capacities", "--domain", f"polygon:{spec}",
                                        "--kmax", "10", "--oracle"])
        assert code == 0 and json.loads(out)["meta"]["oracle"] == "verified", err

    @pytest.mark.parametrize("command", [["capacities", "--kmax", "3", "--oracle"], ["tower"]])
    def test_refuses_a_tower_past_the_blowup_limit(self, capsys, command):
        # past the limit the nef search would exhaust Python's frames near
        # 990 blowups
        n = tower.MAX_BLOWUPS + 1
        spec = json.dumps({"kind": "polygon", "orientation": "convex",
                           "vertices": [["0", "0"], [str(n), "0"], ["0", "1"]]})
        code = main([*command, "--domain", f"polygon:{spec}"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("capax: ") and captured.err.count("\n") == 1
        assert f"needs {n} blowups, more than the {n - 1}" in captured.err

    def test_blowup_limit_counts_the_weights(self, capsys, monkeypatch, fig_file):
        # the figure polygon's tree (5; 1,1,1) needs three blowups
        argv = ["capacities", "--domain", f"@{fig_file}", "--kmax", "10", "--oracle"]
        monkeypatch.setattr(tower, "MAX_BLOWUPS", 3)
        assert main(argv) == 0
        monkeypatch.setattr(tower, "MAX_BLOWUPS", 2)
        capsys.readouterr()
        assert main(argv) == 1
        assert "needs 3 blowups, more than the 2" in capsys.readouterr().err

    def test_does_not_import_scipy(self, fig_file, tmp_path):
        script = ("import sys, capax.cli\n"
                  f"code = capax.cli.main(['capacities', '--domain', '@{fig_file}', "
                  f"'--kmax', '10', '--oracle', '--out', {str(tmp_path / 'o.json')!r}])\n"
                  "print(code, 'scipy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=child_env(), timeout=120)
        assert proc.stdout.split() == ["0", "False"], proc.stderr


def _polygon_file(tmp_path, name, orientation, vertices, **extra):
    path = tmp_path / name
    path.write_text(json.dumps({"kind": "polygon", "orientation": orientation, **extra,
                                "vertices": vertices}))
    return f"@{path}"


class TestStartup:
    @staticmethod
    def loaded(*calls):
        """Run the CLI calls in order in one child Python, each expecting its
        exit code.  Which of numpy, dataclasses and inspect `import
        capax.cli` loaded, and which were loaded after the calls."""
        script = f"""
import os, sys
watched = ("numpy", "dataclasses", "inspect")
import capax.cli
print(",".join(m for m in watched if m in sys.modules))
for argv, code in {calls!r}:
    assert capax.cli.main([*argv, "--out", os.devnull]) == code, argv
print(",".join(m for m in watched if m in sys.modules))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        return tuple(set(filter(None, line.split(","))) for line in proc.stdout.splitlines())

    def test_closed_forms_and_output_do_not_import_numpy(self, fig_file, tmp_path):
        # capax imports no numpy: the closed forms, the --oracle checks and
        # the Q(sqrt 5) scans and folds run on Python numbers.  capax defines
        # its records without class factories, so dataclasses and inspect
        # stay out too
        golden = [["0", "0"], ["1", "0"], ["0", "1/2+1/2*sqrt"]]
        golden_convex = _polygon_file(tmp_path, "golden_convex.json", "convex", golden,
                                      field_d=5)
        golden_concave = _polygon_file(tmp_path, "golden_concave.json", "concave", golden,
                                       field_d=5)
        assert self.loaded(
            (["capacities", "--domain", "ball:1", "--kmax", "100000"], 0),
            (["capacities", "--domain", "ellipsoid:1,2", "--kmax", "50000"], 0),
            (["capacities", "--domain", "square:1", "--kmax", "2000"], 0),
            (["errors", "--domain", "ball:1", "--kmax", "1000"], 0),
            (["obstruct", "--from", "ellipsoid:1,phi", "--to", "ball:sqrt_phi",
              "--kmax", "500", "--backend", "float"], 2),
            (["capacities", "--domain", f"@{fig_file}", "--kmax", "60", "--oracle"], 0),
            (["capacities", "--domain", p6_file(tmp_path, 1), "--kmax", "120", "--oracle"], 0),
            (["capacities", "--domain", golden_convex, "--kmax", "20", "--eps", "1e-6"], 0),
            (["capacities", "--domain", golden_concave, "--kmax", "100", "--eps", "1e-8"], 0),
        ) == (set(), set())

    @pytest.mark.parametrize("argv, unused", [
        (("capacities", "--kmax", "60"), {"tower", "asymptotics", "obstructions"}),
        (("errors", "--kmax", "60"), {"tower", "obstructions"}),
        (("capacities", "--kmax", "10", "--oracle"), {"asymptotics", "obstructions"}),
    ], ids=["capacities", "errors", "oracle"])
    def test_commands_run_only_the_modules_they_use(self, fig_file, argv, unused):
        # a child run from an uncompiled checkout compiles every module it
        # runs: `import capax.cli` puts every capax module in sys.modules,
        # and a command executes only those it uses
        argv = (*argv, "--domain", f"@{fig_file}", "--out", os.devnull)
        script = f"""
import sys, types
import capax.cli
print(*sorted(n for n in sys.modules if n.startswith("capax.")))
assert capax.cli.main({list(argv)!r}) == 0
print(*sorted(n for n, m in sys.modules.items()
              if n.startswith("capax.") and type(m) is types.ModuleType))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        present, ran = (set(line.split()) for line in proc.stdout.splitlines())
        every = {f"capax.{p.stem}" for p in Path(capax.__file__).parent.glob("*.py")} - {
            "capax.__init__"}
        assert present == every
        assert not ran & {f"capax.{m}" for m in unused}
        assert ("capax.tower" in ran) == ("--oracle" in argv)

    def test_large_scans_and_folds_load_no_numpy(self, fig_file, tmp_path):
        # cases that took the numpy kernels while capax had them: the
        # figure's scan at kmax 20000, the golden convex scan past kmax 120,
        # the golden concave fold past kmax 437, and the concave polygon with
        # non-dyadic float vertices, whose table rises at nearly every index
        golden = [["0", "0"], ["1", "0"], ["0", "1/2+1/2*sqrt"]]
        golden_convex = _polygon_file(tmp_path, "golden_convex.json", "convex", golden,
                                      field_d=5)
        golden_concave = _polygon_file(tmp_path, "golden_concave.json", "concave", golden,
                                       field_d=5)
        float_concave = _polygon_file(tmp_path, "float_concave.json", "concave",
                                      [[0, 0], [1, 0], [0.3, 0.1], [0.1, 0.3], [0, 1]],
                                      backend="float")
        assert "numpy" not in self.loaded(
            (["errors", "--domain", f"@{fig_file}", "--kmax", "20000"], 0),
            (["capacities", "--domain", golden_convex, "--kmax", "200", "--eps", "1e-6"], 0),
            (["capacities", "--domain", golden_concave, "--kmax", "600", "--eps", "1e-8"], 0),
            (["capacities", "--domain", float_concave, "--kmax", "5000", "--format", "csv"], 0),
        )[1]


P6 = [(0, 0), (7, 0), (7, 2), (5, Fraction(9, 2)), (2, 6), (0, 6)]


def p6_file(tmp_path, scale):
    path = tmp_path / f"p6-over-2^{Fraction(scale).denominator.bit_length()}.json"
    path.write_text(json.dumps({"kind": "polygon", "orientation": "convex",
                                "vertices": [[str(x * scale), str(y * scale)] for x, y in P6]}))
    return f"@{path}"


class TestScaleInvariance:
    """c_k(lam X) = lam c_k(X): the searches stop by margins relative to the
    data, so a small domain costs what a unit one does."""

    @pytest.mark.parametrize("unit, kmax", [("square", 20), ("p6", 30)])
    def test_oracle_at_scale_1e_minus_12(self, capsys, tmp_path, unit, kmax):
        lam = Fraction(1, 10**12)
        spec = {"square": lambda s: f"square:{s}", "p6": lambda s: p6_file(tmp_path, s)}[unit]
        _, out = run(capsys, "capacities", "--domain", spec(1), "--kmax", str(kmax))
        want = [Fraction(v) * lam for v in json.loads(out)["values"]]
        proc = subprocess.run([sys.executable, "-m", "capax.cli", "capacities", "--domain",
                               spec(lam), "--kmax", str(kmax), "--oracle"],
                              capture_output=True, text=True, env=child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        j = json.loads(proc.stdout)
        assert j["meta"]["oracle"] == "verified"
        assert [Fraction(v) for v in j["values"]] == want

    def test_scan_certifies_at_scale_1e_minus_14(self, capsys, tmp_path):
        # the scan's stopping margin once had an absolute part, and this
        # walked all 200,000 complement indices and exited 1
        lam = Fraction(1, 10**14)
        _, out = run(capsys, "capacities", "--domain", p6_file(tmp_path, 1), "--kmax", "2000")
        want = [Fraction(v) * lam for v in json.loads(out)["values"]]
        code, out = run(capsys, "capacities", "--domain", p6_file(tmp_path, lam),
                        "--kmax", "2000")
        assert code == 0
        assert [Fraction(v) for v in json.loads(out)["values"]] == want

    @pytest.mark.parametrize("exp", [200, 330])
    def test_values_below_the_float_range(self, capsys, tmp_path, exp):
        # P6's area, its weights' squares and at 1e-330 its coordinates
        # underflow as floats; validation and the scan decide on the data
        lam = Fraction(1, 10**exp)
        _, out = run(capsys, "capacities", "--domain", p6_file(tmp_path, 1), "--kmax", "200")
        want = [Fraction(v) * lam for v in json.loads(out)["values"]]
        code, out = run(capsys, "capacities", "--domain", p6_file(tmp_path, lam),
                        "--kmax", "200")
        assert code == 0
        assert [Fraction(v) for v in json.loads(out)["values"]] == want
        if exp == 200:
            code, out = run(capsys, "capacities", "--domain", p6_file(tmp_path, lam),
                            "--kmax", "40", "--oracle")
            assert code == 0 and json.loads(out)["meta"]["oracle"] == "verified"
            assert [Fraction(v) for v in json.loads(out)["values"]] == want[:41]
            # truncated (the four weights 1/2 dropped): the oracle's bracket
            # reads the degree bound's pairings, which A^2 ~ 1e-398 underflows
            code, out = run(capsys, "capacities", "--domain", p6_file(tmp_path, lam),
                            "--kmax", "40", "--eps", "7e-201", "--oracle")
            assert code == 0 and json.loads(out)["meta"]["oracle"] == "verified"
        code, out = run(capsys, "capacities", "--domain", f"ball:1/1{'0' * exp}",
                        "--kmax", "20")
        assert code == 0
        ball = [0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5]
        assert [Fraction(v) for v in json.loads(out)["values"]] == [lam * c for c in ball]

    def test_obstruct_scaled_ball_pair(self, capsys):
        # B(1001/1000) -> B(1) at scale 1 and at scale 1e-12: the same witnesses,
        # which an absolute guard of 1e-12 once hid at the small scale
        def witnesses(scale):
            code, out = run(capsys, "obstruct", "--from", f"ball:1001/1000{scale}",
                            "--to", f"ball:1/1{scale}", "--kmax", "50")
            j = json.loads(out)
            assert (code, j["verdict"]) == (2, "OBSTRUCTED")
            assert all(w["slack"] == 0.0 for w in j["witnesses"])
            return [(w["criterion"], w["k"]) for w in j["witnesses"]]

        assert witnesses("000000000000") == witnesses("")
        assert {c for c, _ in witnesses("")} == {"capacity", "volume"}

    def test_obstruct_exact_volumes_differ_by_2e_minus_11(self, capsys):
        # volumes 1 and 1 + 2e-11: not equal, so the affine-length criterion
        # (4 against 4 + 4e-11) does not apply
        code, out = run(capsys, "obstruct", "--from", "ellipsoid:1,2",
                        "--to", "square:100000000001/100000000000", "--kmax", "20")
        j = json.loads(out)
        assert (code, j["verdict"], j["witnesses"]) == (0, "INCONCLUSIVE", [])
        assert j["volumes"]["equal_within_tolerance"] is False
        code, out = run(capsys, "obstruct", "--from", "ellipsoid:1,2", "--to", "square:1")
        assert code == 0 and json.loads(out)["volumes"]["equal_within_tolerance"] is True


class TestDeterminism:
    def test_threads_do_not_change_output(self, capsys):
        _, out1 = run(capsys, "capacities", "--domain", "ellipsoid:1,2",
                      "--kmax", "64", "--threads", "1", "--format", "csv")
        _, out8 = run(capsys, "capacities", "--domain", "ellipsoid:1,2",
                      "--kmax", "64", "--threads", "8", "--format", "csv")
        assert out1 == out8

    def test_repeat_runs_identical(self, capsys, fig_file):
        _, a = run(capsys, "tower", "--domain", f"@{fig_file}")
        _, b = run(capsys, "tower", "--domain", f"@{fig_file}")
        assert a == b

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "caps.csv"
        code = main(["capacities", "--domain", "ball:2", "--kmax", "3",
                     "--format", "csv", "--out", str(target)])
        assert code == 0
        assert target.read_text().splitlines()[2] == "0,0,0.0,0.0,ball_closed_form"


class TestRoundTrip:
    def test_capacities_json_reparses(self, capsys):
        from capax.scalars import parse_scalar
        _, out = run(capsys, "capacities", "--domain", "ellipsoid:1,3/2", "--kmax", "6")
        back = [parse_scalar(v) for v in json.loads(out)["values"]]
        assert back == [0, 1, Fraction(3, 2), 2, Fraction(5, 2), 3, 3]


# sha256 of the stdout of small CLI calls over every rational route (closed
# forms, the concave table, the convex scan, the nef enumeration), plus the
# float ellipsoid and data whose scaled integers pass 2^53 and 2^62.
# Recorded before rational series moved onto scaled integers; the output
# bytes must not change.
BYTE_PINS = [
    ("ball-3_2", ("capacities", "--domain", "ball:3/2", "--kmax", "300"),
     "6b742463c0390dabbeb1edf9de48f903241259951406d3ba1c553e40b824a814"),
    ("ellipsoid-1-2", ("capacities", "--domain", "ellipsoid:1,2", "--kmax", "300"),
     "a941ae71b9ba038f8ace55892b63e69e013a9a688ab7ae1d3380e7e680cdf8e6"),
    ("square-1", ("capacities", "--domain", "square:1", "--kmax", "300"),
     "af32ee4c5c52f65db118a02a29c392f9a7e0bf2e26092bf02d3b6cc3bf7beb22"),
    ("weights-3-1-1", ("capacities", "--domain", "weights:3;1,1", "--kmax", "300"),
     "dd683f3a7215589e8efad5744d41fc573f4f3d950e95451954762ab7502eeebc"),
    ("concave-csv", ("capacities", "--domain", f"@{PERF_INPUTS / 'concave.json'}",
                     "--kmax", "300", "--format", "csv"),
     "43d2f7956fd2a0a6b4968564f774127585d3e32ef4955abc8fb29511ffdddd8e"),
    ("p6-oracle", ("capacities", "--domain", f"@{PERF_INPUTS / 'p6.json'}",
                   "--kmax", "40", "--oracle"),
     "a3c1ae7caa53f182281a12e45f5314362651da2af59d7fdb53ff4b6e968e1ab4"),
    ("errors-fig", ("errors", "--domain", f"@{PERF_INPUTS / 'fig.json'}", "--kmax", "2000"),
     "10e8a61dc10596eaa84191076066050c9078293c0df363c1651fd4dada0f23e9"),
    ("float-ellipsoid", ("capacities", "--domain", "ellipsoid:1,phi", "--kmax", "300",
                         "--backend", "float"),
     "7e6b332e145066b61779c7d84335e788229ac0afa7156ab7748635b27ebd8deb"),
    ("ellipsoid-above-2^62", ("capacities", "--domain", "ellipsoid:10000000000000000001/3,2",
                              "--kmax", "300"),
     "1bfe2f48c028394ae96c23ae0ba09aa8e13028e6ae38f3e77227c48890ec3d54"),
    ("square-above-2^62-csv", ("capacities", "--domain", "square:4611686018427387905/7",
                               "--kmax", "300", "--format", "csv"),
     "a3cf365d009efc66ac694f4e7c2c840ad54a0eb176697ba659ab91fcfa569bc1"),
    ("ball-above-2^53", ("capacities", "--domain", "ball:9007199254740993", "--kmax", "300"),
     "9d19228c262c2fe487545b2a3615c2ce3635bcf1e55553fb8cecbfb6bb9dd625"),
]

# Q(sqrt d) data past the k = 30 golden pins of test_capacities: the golden
# convex scan and concave fold, and a sqrt:2 weight list with no dropped
# tail.  Recorded while the Q(sqrt d) fold ran on int pairs and the scan on
# Quads, before both moved onto the ints of `capacities._quad_ints`
QUAD_BYTE_PINS = [
    ("golden-convex-300", ("capacities", "--domain", f"@{PERF_INPUTS / 'golden_convex.json'}",
                           "--kmax", "300", "--eps", "1e-6"),
     "f525887c4014bc761e0a963c825545f58df4d1b3c0fcbc1cb84dbd4501454821"),
    ("golden-concave-2000", ("capacities", "--domain",
                             f"@{PERF_INPUTS / 'golden_concave.json'}",
                             "--kmax", "2000", "--eps", "1e-8"),
     "98dbf27b98f9039f913c12a9067a4bdd5edafe6700de0460ce0cec68c63ffec6"),
    ("sqrt2-weights-400", ("capacities", "--domain", "weights:5;1,1+1*sqrt,1/2*sqrt",
                           "--backend", "sqrt:2", "--kmax", "400"),
     "523411ecc94736c4010c5d490dc8a47174572887791a10437a6caa427cefa96e"),
]


@pytest.mark.parametrize("name,argv,digest", BYTE_PINS + QUAD_BYTE_PINS,
                         ids=[p[0] for p in BYTE_PINS + QUAD_BYTE_PINS])
def test_stdout_bytes_pinned(capsys, name, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest

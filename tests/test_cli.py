import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capax
from capax import capacities, domains
from capax.cli import main, parse_domain
from capax.errors import CapaxError


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
    ], ids=["negative-ball", "negative-kmax", "no-argument", "one-leg",
            "not-a-number", "square-field", "missing-file", "unknown-backend",
            "superscript-field", "vertices-not-a-list", "unknown-orientation",
            "over-packed-weights", "weights-fill-the-head", "huge-field",
            "overlong-field", "golden-without-eps"])
    def test_bad_input_exits_one_with_message(self, capsys, tmp_path, argv):
        argv = [a.format(missing=tmp_path / "missing.json") if a.startswith("@") else a
                for a in argv]
        code = main(["capacities", "--kmax", "5"] + argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("capax: ")

    @pytest.mark.parametrize("argv", [
        ["errors", "--domain", "ball:1", "--kmax", "20", "--window", "abc"],
        ["errors", "--domain", "ball:1", "--kmax", "20", "--window", "10"],
        ["capacities", "--domain", "ball:1", "--out", "{missing}"],
        ["bounds", "--domain", "weights:5;1,1"],
    ], ids=["window-not-a-number", "window-one-number", "out-in-missing-dir",
            "bounds-of-weight-list"])
    def test_bad_command_exits_one_with_message(self, capsys, tmp_path, argv):
        argv = [a.format(missing=tmp_path / "no-such-dir" / "x.json") for a in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("capax: ") and captured.err.count("\n") == 1

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

    def test_does_not_import_scipy(self, fig_file, tmp_path):
        script = ("import sys, capax.cli\n"
                  f"code = capax.cli.main(['capacities', '--domain', '@{fig_file}', "
                  f"'--kmax', '10', '--oracle', '--out', {str(tmp_path / 'o.json')!r}])\n"
                  "print(code, 'scipy' in sys.modules)\n")
        src = str(Path(capax.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.stdout.split() == ["0", "False"], proc.stderr


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


PERF_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"

# sha256 of the stdout of small CLI calls over every rational route (closed
# forms, the concave table, the convex scan, the nef enumeration), plus the
# float ellipsoid heap and data whose scaled integers pass 2^53 and 2^62.
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


@pytest.mark.parametrize("name,argv,digest", BYTE_PINS, ids=[p[0] for p in BYTE_PINS])
def test_stdout_bytes_pinned(capsys, name, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest

"""The streamed writer and the sorted ellipsoid against their references.

`write_json` must give the bytes of json.dumps(..., indent=2,
sort_keys=True, allow_nan=False) + "\\n", and the series' CSV the bytes of
the string builders it replaced, copied below.  `ellipsoid_capacities`
must give the sorted lattice exactly, floats included.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capax import capacities
from capax.asymptotics import ErrorSeries, band_from_pairings
from capax.capacities import CapacitySeries, ellipsoid_capacities
from capax.cli import main
from capax.quad import Quad
from capax.scalars import CHUNK, Column, format_scalar, write_csv, write_json


def written(produce) -> str:
    out = []
    produce(out.append)
    return "".join(out)


def reference_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def plain(obj):
    """The document with each Column as the list json.dumps would see."""
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, Column):
        text = obj.text or float
        return [text(x) for x in obj.items]
    return obj


# --- the string builders the writer replaced, verbatim ----------------------

def old_format_ratios(num: list, den: int) -> list[str]:
    if den == 1:
        return list(map(str, num))
    out = []
    for n in num:
        g = math.gcd(n, den)
        out.append(str(n // g) if g == den else f"{n // g}/{den // g}")
    return out


def old_formatted(self) -> list[str]:
    if self.den is None:
        return [format_scalar(v) for v in self.num]
    return old_format_ratios(self.num, self.den)


def old_to_json(self) -> dict:
    return {
        "schema": "capax.capacities.v1",
        "method": self.method,
        "backend": self.backend,
        "source": self.source,
        "kmax": self.kmax,
        "values": old_formatted(self),
        "lower_slack": [float(s) for s in self.lower_slack] if self.lower_slack else None,
        "upper_slack": [float(s) for s in self.upper_slack] if self.upper_slack else None,
        "meta": self.meta,
    }


def old_to_csv(self) -> str:
    lines = [f"# capax-csv v1 capacities method={self.method} source={self.source}",
             "k,c_k,lower_slack,upper_slack,method"]
    for k, v in enumerate(old_formatted(self)):
        lo = float(self.lower_slack[k]) if self.lower_slack else 0.0
        hi = float(self.upper_slack[k]) if self.upper_slack else 0.0
        lines.append(f"{k},{v},{lo!r},{hi!r},{self.method}")
    return "\n".join(lines) + "\n"


def old_errors_csv(self) -> str:
    lo = float(self.band.lower) if self.band else float("nan")
    hi = float(self.band.upper) if self.band else float("nan")
    lines = [f"# capax-csv v1 errors source={self.source} vol={self.vol!r}",
             "k,e_k,band_lower,band_upper"]
    for k, e in zip(self.ks, self.e):
        lines.append(f"{int(k)},{float(e)!r},{lo!r},{hi!r}")
    return "\n".join(lines) + "\n"


# --- strategies ---------------------------------------------------------------

EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0])
FINITE = st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS
BIG_INTS = st.integers(-2**100, 2**100) | st.sampled_from([2**64, -2**64, 2**64 + 1, 2**63])
LEAVES = st.none() | st.booleans() | BIG_INTS | FINITE | st.text()
COLUMNS = (st.builds(Column, st.lists(FINITE, max_size=20))
           | st.builds(Column, st.lists(st.integers(-5, 5), max_size=20), st.just(str)))
DOCUMENTS = st.recursive(
    LEAVES | COLUMNS,
    lambda inner: st.lists(inner, max_size=5) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=40)


def stepped(values):
    """A step function: each value repeated over a run, some runs long
    enough that a series spans several windows of CHUNK entries."""
    # a quarter of the runs span a window, give or take a few entries
    length = st.integers(1, 48).map(lambda n: n if n <= 36 else n + CHUNK - 42)
    runs = st.lists(st.tuples(values, length), min_size=1, max_size=8)
    return runs.map(lambda rs: [v for v, n in rs for _ in range(n)])


QUADS = st.builds(lambda p, q: Quad(p, q, 5),
                  st.fractions(-10, 10, max_denominator=7), st.fractions(-10, 10, max_denominator=7))
ALL_FLOATS = FINITE | st.sampled_from([math.nan, math.inf, -math.inf])
# (numerators, denominator) of each backend; numerators past 2^53 and 2^64 too
SERIES_VALUES = st.one_of(
    st.tuples(stepped(st.integers(-2**70, 2**70) | st.integers(-3, 3)),
              st.integers(1, 12) | st.sampled_from([2**53 + 1, 2**64])),
    st.tuples(stepped(ALL_FLOATS), st.none()),
    st.tuples(stepped(QUADS | st.just(Quad(0, 0, 5))), st.none()),
)


@st.composite
def series(draw):
    num, den = draw(SERIES_VALUES)
    slack = stepped(FINITE | st.fractions(0, 10, max_denominator=9) | st.integers(0, 3))

    def aligned():
        s = draw(st.none() | slack)
        return None if s is None else (s * (len(num) // len(s) + 1))[:len(num)]

    meta = draw(st.dictionaries(st.text(max_size=5), FINITE | st.text(max_size=5), max_size=3))
    return CapacitySeries(method=draw(st.sampled_from(["decomposition", "ball_closed_form"])),
                          num=num, den=den, lower_slack=aligned(), upper_slack=aligned(),
                          source=draw(st.text("abc:(),/", max_size=10)), meta=meta)


# --- the writer ---------------------------------------------------------------

class TestWriteJson:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(doc=DOCUMENTS)
    def test_bytes_equal_json_dumps(self, doc):
        assert written(lambda w: write_json(doc, w)) == reference_json(plain(doc))

    @pytest.mark.parametrize("doc", [
        {"a": [1.0, math.nan]},
        {"b": {"x": 1, "y": -math.inf}, "a": math.inf},
        [Column([0.0, 1.0, math.nan, math.inf])],
        {"z": Column([math.inf]), "a": Column([1.0, -math.inf])},
    ])
    def test_non_finite_raises_json_error_before_any_write(self, doc):
        with pytest.raises(ValueError) as ref:
            json.dumps(plain(doc), indent=2, sort_keys=True, allow_nan=False)
        out = []
        with pytest.raises(ValueError) as got:
            write_json(doc, out.append)
        assert str(got.value) == str(ref.value)
        assert out == []

    def test_value_json_cannot_hold_raises_json_type_error_before_any_write(self):
        doc = {"a": Column([1.0]), "b": {1, 2}}
        with pytest.raises(TypeError) as ref:
            json.dumps(plain(doc), indent=2, sort_keys=True, allow_nan=False)
        out = []
        with pytest.raises(TypeError) as got:
            write_json(doc, out.append)
        assert str(got.value) == str(ref.value)
        assert out == []

    def test_finite_entries_whose_sum_overflows_are_written(self):
        doc = {"k": Column([1e308, 1e308])}
        assert written(lambda w: write_json(doc, w)) == reference_json(plain(doc))

    def test_writes_in_chunks(self):
        s = capacities.ball_capacities(Fraction(1), 10 * CHUNK)
        out = []
        write_json(s.to_json(), out.append)
        assert len(out) > 1 and "".join(out) == reference_json(old_to_json(s))


class TestSeriesOutput:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(s=series())
    def test_json_bytes_equal_the_old_document(self, s):
        assert written(lambda w: write_json(s.to_json(), w)) == reference_json(old_to_json(s))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(s=series())
    def test_csv_bytes_equal_the_old_rows(self, s):
        assert written(s.to_csv) == old_to_csv(s)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(e=stepped(ALL_FLOATS), band=st.none() | st.tuples(FINITE, FINITE),
           as_list=st.booleans(), vol=FINITE)
    def test_error_csv_bytes_equal_the_old_rows(self, e, band, as_list, vol):
        ks = list(range(len(e) + 3)) if as_list else range(len(e))
        err = ErrorSeries("src", vol, ks, e, band and band_from_pairings(*band))
        assert written(err.to_csv) == old_errors_csv(err)

    def test_signed_zeros_print_apart(self):
        zeros = [0.0, -0.0, -0.0, 0.0, 0, -0.0]
        s = CapacitySeries("t", zeros[:-2] + [1.0, 1.0], lower_slack=zeros, upper_slack=zeros[::-1])
        assert written(s.to_csv) == old_to_csv(s)
        assert written(lambda w: write_json(s.to_json(), w)) == reference_json(old_to_json(s))

    def test_csv_rows_of_a_constant_field_and_a_list_of_ks(self):
        got = written(lambda w: write_csv(w, "h\n", [3, 5, 8], [Column([1, 1, 2], str), "c"], ";"))
        assert got == "h\n3,1,c;\n5,1,c;\n8,2,c;\n"


class TestOutputOnTheCommandLine:
    @staticmethod
    def nan_series(d, K, limits=None):
        return CapacitySeries("decomposition", list(range(K + 1)), 1,
                              lower_slack=[0.0] * K + [math.nan])

    @pytest.mark.parametrize("to_file", [False, True])
    def test_nan_result_exits_one_and_writes_nothing(self, capsys, monkeypatch, tmp_path,
                                                     to_file):
        monkeypatch.setattr(capacities, "series_for_domain", self.nan_series)
        target = tmp_path / "out.json"
        code = main(["capacities", "--domain", "ball:1", "--kmax", str(3 * CHUNK)]
                    + (["--out", str(target)] if to_file else []))
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == ("capax: a result left the float range: "
                       "Out of range float values are not JSON compliant: nan\n")
        assert not target.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file_equals_stdout(self, capsys, tmp_path, fmt):
        argv = ["capacities", "--domain", "ellipsoid:1,2", "--kmax", str(3 * CHUNK),
                "--format", fmt]
        assert main(argv) == 0
        out, _ = capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o").read_text() == out


# --- the ellipsoid --------------------------------------------------------------

def brute_ellipsoid(a, b, K: int) -> list:
    """The K+1 smallest of a*m + b*n over m, n <= K, each value summed the
    way the closed form sums it: b added n times, then a added m times."""
    vals = []
    base = a - a
    for _ in range(K + 1):
        v = base
        for _ in range(K + 1):
            vals.append(v)
            v = v + a
        base = base + b
    return sorted(vals)[:K + 1]


RATIOS = (st.fractions(Fraction(1, 1000), 1000, max_denominator=1000)
          | st.sampled_from([Fraction(1), Fraction(1000), Fraction(1, 1000)]))


@st.composite
def legs(draw):
    kind = draw(st.sampled_from(["rational", "float", "quad"]))
    r = draw(RATIOS)
    if kind == "rational":
        a = draw(st.fractions(Fraction(1, 100), 100, max_denominator=100))
        return a, a * r
    if kind == "float":
        a = draw(st.floats(1e-3, 1e3))
        return a, draw(st.just(a) | st.just(a * float(r)) | st.floats(a / 1e3, a * 1e3))
    a = Quad(draw(st.fractions(1, 5, max_denominator=5)), draw(st.fractions(0, 2, max_denominator=5)), 5)
    return a, draw(st.just(a * r) | st.just(a) | st.just(Quad(Fraction(1, 2), Fraction(1, 2), 5)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ab=legs(), K=st.integers(0, 40))
def test_ellipsoid_is_the_sorted_lattice(ab, K):
    a, b = ab
    got = ellipsoid_capacities(a, b, K).values
    want = brute_ellipsoid(a, b, K)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]

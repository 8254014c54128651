"""Serialisation roundtrips, strict decoding, and deterministic reports."""

import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gjrep import ArmaModel, InputError, LinearPencil, NoiseSpec, PolynomialPencil
from gjrep.io import (
    _write_components,
    _write_report,
    components_to_csv,
    decode_complex,
    dump_model,
    dump_pencil,
    dumps_report,
    encode_complex,
    load_model,
    load_pencil,
)
from gjrep.arma import Trajectory
from oracles import complex_lists, components_csv_literal, report_text


def test_complex_roundtrip():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    enc = encode_complex(a)
    assert json.dumps(enc)  # json-safe
    back = decode_complex(enc, "a", ndim=2)
    assert np.array_equal(back, a)
    v = np.array([1 + 2j, 3 - 4j])
    assert np.array_equal(decode_complex(encode_complex(v), "v", ndim=1), v)
    for value in (a, v, np.complex128(-0.0 + 2j), np.arange(6).reshape(2, 3), np.zeros((2, 0))):
        assert encode_complex(value) == complex_lists(value)


def test_decode_rejects_bare_reals_and_rank():
    # a real 2x2 matrix is ambiguous without the [re, im] axis: reject it
    with pytest.raises(InputError):
        decode_complex([[1.0, 2.0], [3.0, 4.0]], "m", ndim=2)
    with pytest.raises(InputError):
        decode_complex([[1.0, 0.0], [2.0, 0.0]], "m", ndim=2)  # decodes to rank 1
    with pytest.raises(InputError):
        decode_complex("text", "m")


def test_linear_pencil_roundtrip():
    pencil = LinearPencil(
        c0=np.array([[0.0, 1j], [0.0, 0.0]]),
        c1=np.array([[1.0, 0.0], [2.0, 1.0]]),
    )
    doc = dump_pencil(pencil)
    assert doc["n"] == 2
    assert json.dumps(doc)
    back = load_pencil(json.loads(json.dumps(doc)))
    assert isinstance(back, LinearPencil)
    assert np.array_equal(back.c0, pencil.c0)
    assert np.array_equal(back.c1, pencil.c1)


def test_polynomial_pencil_roundtrip():
    rng = np.random.default_rng(1)
    poly = PolynomialPencil(tuple(rng.standard_normal((2, 2)) for _ in range(3)))
    doc = dump_pencil(poly)
    assert doc["degree"] == 2
    back = load_pencil(json.loads(json.dumps(doc)))
    assert isinstance(back, PolynomialPencil)
    for a, b in zip(back.coeffs, poly.coeffs):
        assert np.array_equal(a, b.astype(complex))


def test_load_pencil_validation():
    with pytest.raises(InputError):
        load_pencil([1, 2, 3])
    with pytest.raises(InputError):
        load_pencil({"n": 2})
    ok = dump_pencil(LinearPencil(c0=np.eye(2), c1=np.eye(2)))
    bad = dict(ok, n=3)
    with pytest.raises(InputError):
        load_pencil(bad)
    poly = dump_pencil(PolynomialPencil((np.eye(2), np.eye(2), np.eye(2))))
    bad = dict(poly, degree=5)
    with pytest.raises(InputError):
        load_pencil(bad)


def test_model_roundtrip():
    model = ArmaModel(
        a0=np.eye(2),
        a1=np.array([[-1.0, 0.2], [0.0, -0.5]]),
        f0=np.eye(2),
        f1=0.5 * np.eye(2),
        c=np.array([1.0, -1.0]),
    )
    spec = NoiseSpec(
        kind="gaussian", dim=2, seed=7, burn_in=30, params={"sigma": 2.0}
    )
    doc = dump_model(model, spec)
    back_model, back_spec = load_model(json.loads(json.dumps(doc)))
    assert np.array_equal(back_model.a0, model.a0.astype(complex))
    assert np.array_equal(back_model.c, model.c.astype(complex))
    assert back_spec == spec


def test_load_model_validation():
    model = ArmaModel(
        a0=np.eye(1), a1=-np.eye(1), f0=np.eye(1), f1=np.eye(1), c=np.zeros(1)
    )
    spec = NoiseSpec(kind="gaussian", dim=1, seed=0)
    doc = dump_model(model, spec)
    for key in ("a0", "a1", "f0", "f1", "c", "noise"):
        broken = {k: v for k, v in doc.items() if k != key}
        with pytest.raises(InputError):
            load_model(broken)
    broken = dict(doc, noise={"kind": "gaussian"})  # seed missing
    with pytest.raises(InputError):
        load_model(broken)


def test_components_csv_layout():
    comp = {
        "beta": np.array([[1.0 + 2.0j], [3.0, ]], dtype=complex),
        "alpha": np.array([[0.5], [0.25]], dtype=complex),
    }
    text = components_to_csv(comp, start=-1)
    lines = text.strip().split("\n")
    assert lines[0] == "t,component,coordinate,re,im"
    # sorted component names, time-major rows
    assert lines[1].startswith("-1,alpha,0,")
    assert lines[2].startswith("-1,beta,0,")
    assert lines[3].startswith("0,alpha,0,")
    field = lines[2].split(",")
    assert float(field[3]) == 1.0 and float(field[4]) == 2.0
    with pytest.raises(InputError):
        components_to_csv(
            {"a": np.zeros((2, 1)), "b": np.zeros((3, 1))}, start=0
        )


def test_trajectory_csv():
    traj = Trajectory(start=2, values=np.array([[1.0, 2.0]], dtype=complex))
    text = components_to_csv({"x": traj.values}, traj.start)
    lines = text.strip().split("\n")
    assert lines[1].split(",")[:3] == ["2", "x", "0"]
    assert len(lines) == 3


def test_csv_bytes_match_the_row_by_row_writer():
    rng = np.random.default_rng(3)
    tables = {
        "complex": rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)),
        "real": rng.standard_normal((6, 2)) * 10.0 ** rng.integers(-300, 300, (6, 2)),
        "one_d": rng.standard_normal(6),
        "non_finite": np.array(
            [[complex(np.nan, 0.0), complex(-0.0, np.nan)], [complex(np.inf, -np.inf), 1.0],
             [complex(-np.inf, 1e-320), complex(2.0, np.inf)]] * 2
        ),
        "real_non_finite": np.array([[np.nan, -0.0], [np.inf, -np.inf], [5e-324, 1e308]] * 2),
        "int": np.arange(12).reshape(6, 2),
        'needs "quotes", here': np.full((6, 1), 0.5),
        "": np.zeros(6),
    }
    for names in (tables, {"real": tables["real"]}, {"one_d": tables["one_d"]}, {}):
        assert components_to_csv(names, -2) == components_csv_literal(names, -2)
    assert '\n-2,"needs ""quotes"", here",0,0.5,0.0\n' in components_to_csv(tables, -2)


def test_reports_deterministic_and_sorted():
    rep = {
        "z_last": np.float64(1.5),
        "a_first": {"nested": np.array([1.0 + 1.0j])},
        "inf_val": float("inf"),
    }
    one = dumps_report(rep)
    two = dumps_report({k: rep[k] for k in reversed(list(rep))})
    assert one == two
    assert one.index('"a_first"') < one.index('"z_last"')
    assert json.loads(one)["inf_val"] == "inf"


def _raise_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def test_report_non_finite_values_are_strings():
    rep = {
        "real": np.array([[np.nan, 1.0], [np.inf, -np.inf]]),
        "complex": np.array([np.inf + 0j, complex(np.nan, -np.inf)]),
        "scalars": [np.float64(np.nan), complex(np.inf, 1.0), float("-inf")],
    }
    text = dumps_report(rep)
    back = json.loads(text, parse_constant=_raise_constant)
    assert back["real"] == [["nan", 1.0], ["inf", "-inf"]]
    assert back["complex"] == [["inf", 0.0], ["nan", "-inf"]]
    assert back["scalars"] == ["nan", ["inf", 1.0], "-inf"]
    # arrays follow the rule plain lists of floats always had
    as_lists = {"real": rep["real"].tolist(), "complex": complex_lists(rep["complex"])}
    assert dumps_report({**rep, **as_lists}) == text


_finite = st.floats(allow_nan=False, allow_infinity=False)
_finite_complex = st.complex_numbers(allow_nan=False, allow_infinity=False)
# 0-d, empty, 1-D, 2-D and rank-3 arrays
_shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=6),
    _finite,
    _finite_complex,
    st.floats(),
    _finite.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _finite_complex.map(np.complex128),
    hnp.arrays(np.float64, _shapes, elements=_finite),
    hnp.arrays(np.complex128, _shapes, elements=_finite_complex),
    # non-finite entries among finite ones
    hnp.arrays(np.float64, _shapes, elements=st.floats()),
    hnp.arrays(np.complex128, _shapes, elements=st.complex_numbers()),
)
_reports = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4) | st.integers(-3, 3), inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_reports)
def test_report_bytes_match_oracle(report):
    expected = report_text(report)
    assert dumps_report(report) == expected
    # the streamed route, into a text buffer and into a real file
    buf = io.StringIO()
    _write_report(report, buf)
    assert buf.getvalue() == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        with open(path, "w", encoding="utf-8") as fh:
            _write_report(report, fh)
        assert path.read_text(encoding="utf-8") == expected


def test_csv_streams_in_constant_memory(tmp_path):
    # seven (T + 1, n) tables at T = 1000, as represent --format csv writes
    # them: the whole text (2.8 MB here, a traced peak of 10.7 MB when it
    # was built in memory) is never held; the traced peak is about 0.16 MB
    # at any T
    rng = np.random.default_rng(0)
    tables = {
        name: rng.standard_normal((1001, 10)) + 1j * rng.standard_normal((1001, 10))
        for name in ("trend", "stationary", "det_sin", "det_reg", "k_term", "xhat", "oracle")
    }
    array_bytes = sum(a.nbytes for a in tables.values())
    path = tmp_path / "tables.csv"
    with open(path, "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            _write_components(tables, -1, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 0.25 * array_bytes, (peak, array_bytes)

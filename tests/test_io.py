"""Serialisation roundtrips, strict decoding, and deterministic reports."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gjrep import ArmaModel, InputError, LinearPencil, NoiseSpec, PolynomialPencil
from gjrep.io import (
    components_to_csv,
    decode_complex,
    dump_model,
    dump_pencil,
    dumps_report,
    encode_complex,
    load_model,
    load_pencil,
    trajectory_to_csv,
)
from gjrep.arma import Trajectory
from oracles import complex_lists, report_text


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
    text = trajectory_to_csv(traj)
    lines = text.strip().split("\n")
    assert lines[1].split(",")[:3] == ["2", "x", "0"]
    assert len(lines) == 3


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
_shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=6),
    _finite,
    _finite_complex,
    _finite.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _finite_complex.map(np.complex128),
    hnp.arrays(np.float64, _shapes, elements=_finite),
    hnp.arrays(np.complex128, _shapes, elements=_finite_complex),
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
    assert dumps_report(report) == report_text(report)

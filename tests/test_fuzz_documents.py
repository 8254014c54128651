"""Whole model and pencil documents, drawn at random, through ``cli.main``.

Every document, well formed or not, must end in one of the documented exit
codes (0 success, 2 a failed check, 3 bad input, 4 a numeric failure) with
no exception escaping ``main``.  The drawn documents stay small (n <= 4,
T <= 50, burn-in <= 50) with finite entries of size at most 1e6; keys are
dropped, mistyped or given the wrong shape at random.
"""

import contextlib
import io
import json
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gjrep.cli import main
from gjrep.represent import FORMS

SETTINGS = dict(
    max_examples=100,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
EXIT_CODES = {0, 2, 3, 4}

entry = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
pair = st.tuples(entry, entry).map(list)
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    entry,
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=3),
    st.fixed_dictionaries({}),
)


def matrix(rows, cols):
    return st.lists(st.lists(pair, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


# most draws leave a level of the document intact, so that most documents
# reach the numerics
rarely = st.sampled_from([0, 0, 0, 0, 0, 1, 2])


@st.composite
def square(draw, n):
    """An n x n matrix, now and then one of another shape."""
    wrong = st.tuples(st.integers(0, 4), st.integers(0, 4))
    rows, cols = draw(wrong) if draw(rarely) else (n, n)
    return draw(matrix(rows, cols))


@st.composite
def mangled(draw, doc):
    """``doc`` with some keys dropped and some values replaced by junk."""
    doc = dict(doc)
    count = min(draw(rarely), len(doc))
    keys = st.lists(st.sampled_from(sorted(doc)), min_size=count, max_size=count, unique=True)
    for key in draw(keys):
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(junk)
    return doc


@st.composite
def noise_docs(draw, n):
    kind = draw(st.sampled_from(["gaussian", "bernoulli_scaled", "table", "laplace"]))
    if kind == "gaussian":
        sigma = st.floats(0.0, 1e6)
        params = {"sigma": draw(st.one_of(sigma, st.lists(sigma, min_size=n, max_size=n)))}
    elif kind == "bernoulli_scaled":
        params = {
            "p": draw(st.floats(0.0, 1.0)),
            "eps": draw(entry),
            "centered": draw(st.booleans()),
        }
    else:
        size = draw(st.integers(1, 3))
        probs = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
        total = sum(probs)
        params = {
            "values": draw(st.lists(entry, min_size=size, max_size=size)),
            "probs": [p / total for p in probs] if total > 0 else probs,
        }
    doc = {
        "kind": kind,
        "seed": draw(st.integers(0, 2**32 - 1)),
        "burn_in": draw(st.integers(0, 50)),
        "params": draw(mangled(params)),
    }
    return draw(mangled(doc))


@st.composite
def model_docs(draw):
    n = draw(st.integers(1, 4))
    doc = {name: draw(square(n)) for name in ("a0", "a1", "f0", "f1")}
    doc["c"] = draw(st.lists(pair, min_size=n, max_size=n))
    doc["n"] = n
    doc["noise"] = draw(noise_docs(n))
    return draw(mangled(doc))


@st.composite
def pencil_docs(draw):
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        doc = {"n": n, "c0": draw(square(n)), "c1": draw(square(n))}
    else:
        degree = draw(st.integers(1, 2))
        doc = {"n": n, "degree": degree, "coeffs": [draw(square(n)) for _ in range(degree + 1)]}
    return draw(mangled(doc))


def assert_exit_code(argv) -> None:
    """``main(argv)`` returns a documented code, and no exception escapes it.

    Bounded entries do not bound the path: a nearly singular ``a0`` makes
    the step ``a0^{-1} a1`` huge, and the path overflows within a few steps.
    numpy then warns, which outside the test suite is a message and not an
    exception, so the warnings are recorded here; a run that overflowed
    must not report success.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in EXIT_CODES
    assert not (caught and code == 0), [str(w.message) for w in caught]


@settings(**SETTINGS)
@given(doc=model_docs(), form=st.sampled_from(FORMS), t_end=st.integers(0, 50))
def test_any_model_document_gets_an_exit_code(doc, form, t_end, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert_exit_code(["represent", "--model", str(path), "--form", form, "--T", str(t_end)])


@settings(**SETTINGS)
@given(doc=pencil_docs())
# a constant pencil so small that the projection bound's square overflowed
# a Python float (exit 1 with a traceback); and one whose contour never settles
@example(doc={"n": 1, "c0": [[[2.2835761536409183e-281, 0.0]]], "c1": [[[0.0, 0.0]]]})
@example(doc={"n": 1, "c0": [[[1e-200, 0.0]]], "c1": [[[0.0, 0.0]]]})
def test_any_pencil_document_gets_an_exit_code(doc, tmp_path):
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(doc))
    assert_exit_code(["analyze", "--pencil", str(path)])

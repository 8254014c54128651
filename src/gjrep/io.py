"""Serialization: pencils and models from JSON, trajectories to CSV, reports to JSON.

Complex scalars travel as two-element ``[re, im]`` arrays.  All emitted
JSON is deterministic: keys sorted, trailing newline, no timestamps.
Reports and CSV tables are written to a text stream as they are encoded, a
matrix row or a time step at a time, so the command line holds neither the
whole document nor a list of all the leaves of a matrix; ``dumps_report``
and ``components_to_csv`` collect the same text in memory.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from itertools import repeat
from typing import Any

import numpy as np

from .arma import ArmaModel, NoiseSpec
from .augment import PolynomialPencil
from .errors import InputError
from .pencil import Array, LinearPencil


def encode_complex(value) -> Any:
    """Nested lists with complex entries as [re, im]."""
    arr = np.asarray(value, dtype=np.complex128)
    return np.stack([arr.real, arr.imag], -1).tolist()


def decode_complex(obj, name: str = "value", ndim: int | None = None) -> Array:
    """Inverse of encode_complex: strips the trailing [re, im] axis."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name}: not a numeric array: {exc}") from None
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise InputError(f"{name}: complex entries must be [re, im] pairs")
    out = (arr[..., 0] + 1j * arr[..., 1]).astype(np.complex128)
    if ndim is not None and out.ndim != ndim:
        raise InputError(f"{name}: expected a rank-{ndim} array, got rank {out.ndim}")
    return out


def dump_pencil(pencil: LinearPencil | PolynomialPencil) -> dict:
    if isinstance(pencil, PolynomialPencil):
        return {
            "n": pencil.dim,
            "degree": pencil.degree,
            "coeffs": [encode_complex(c) for c in pencil.coeffs],
        }
    return {
        "n": pencil.dim,
        "c0": encode_complex(pencil.c0),
        "c1": encode_complex(pencil.c1),
    }


def load_pencil(obj: dict) -> LinearPencil | PolynomialPencil:
    """Linear pencil from {"n", "c0", "c1"}; polynomial from {"n", "degree", "coeffs"}."""
    if not isinstance(obj, dict):
        raise InputError("pencil document must be a JSON object")
    if "coeffs" in obj or "degree" in obj:
        coeffs = obj.get("coeffs")
        if not isinstance(coeffs, list):
            raise InputError("polynomial pencil needs a 'coeffs' list")
        _check_declared(obj, "degree", len(coeffs) - 1)
        mats = [decode_complex(c, f"coeffs[{i}]", ndim=2) for i, c in enumerate(coeffs)]
        poly = PolynomialPencil(coeffs=tuple(mats))
        _check_declared(obj, "n", poly.dim)
        return poly
    for key in ("c0", "c1"):
        if key not in obj:
            raise InputError(f"pencil document missing {key!r}")
    pen = LinearPencil(
        c0=decode_complex(obj["c0"], "c0", ndim=2), c1=decode_complex(obj["c1"], "c1", ndim=2)
    )
    _check_declared(obj, "n", pen.dim)
    return pen


def _check_declared(obj: dict, key: str, actual: int) -> None:
    """A declared ``key`` (``n`` or ``degree``) must be a JSON integer equal
    to ``actual``, the value the matrices give; no coercion."""
    if key not in obj:
        return
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{key} must be an integer, got {value!r}")
    if value != actual:
        raise InputError(f"declared {key}={value} but the matrices give {key}={actual}")


def dump_model(model: ArmaModel, noise: NoiseSpec) -> dict:
    return {
        "n": model.dim,
        "a0": encode_complex(model.a0),
        "a1": encode_complex(model.a1),
        "f0": encode_complex(model.f0),
        "f1": encode_complex(model.f1),
        "c": encode_complex(model.c),
        "noise": {
            "kind": noise.kind,
            "seed": noise.seed,
            "burn_in": noise.burn_in,
            "params": noise.params,
        },
    }


def load_model(obj: dict) -> tuple[ArmaModel, NoiseSpec]:
    """Model plus noise spec from one JSON document."""
    if not isinstance(obj, dict):
        raise InputError("model document must be a JSON object")
    for key in ("a0", "a1", "f0", "f1", "c", "noise"):
        if key not in obj:
            raise InputError(f"model document missing {key!r}")
    model = ArmaModel(
        a0=decode_complex(obj["a0"], "a0", ndim=2),
        a1=decode_complex(obj["a1"], "a1", ndim=2),
        f0=decode_complex(obj["f0"], "f0", ndim=2),
        f1=decode_complex(obj["f1"], "f1", ndim=2),
        c=decode_complex(obj["c"], "c", ndim=1),
    )
    _check_declared(obj, "n", model.dim)
    nz = obj["noise"]
    if not isinstance(nz, dict) or "kind" not in nz or "seed" not in nz:
        raise InputError("noise spec needs at least 'kind' and 'seed'")
    spec = NoiseSpec(
        kind=str(nz["kind"]),
        dim=model.dim,
        seed=nz["seed"],
        burn_in=nz.get("burn_in", 0),
        params=nz.get("params", {}),
    )
    return model, spec


def components_to_csv(
    components: dict[str, Array],
    start: int,
) -> str:
    """CSV with columns t, component, coordinate, re, im.

    Components are emitted in sorted name order inside each time step so
    the output is deterministic.
    """
    buf = _io.StringIO()
    _write_components(components, start, buf)
    return buf.getvalue()


def _write_components(components: dict[str, Array], start: int, fh) -> None:
    """Write the CSV of ``components_to_csv`` to the text stream ``fh``, one
    time step at a time, each step's rows in one write.

    A component name goes through ``csv`` once, so it is quoted as a
    ``csv.writer`` row would quote it; every other field is an integer or a
    float repr, which needs no quoting.
    """
    fh.write("t,component,coordinate,re,im\n")
    names = sorted(components)
    columns = []
    for name in names:
        table = np.asarray(components[name])
        if table.dtype.kind not in "fc":
            table = table.astype(np.complex128)  # as complex() reads an integer
        if table.ndim not in (1, 2):
            raise InputError(f"component {name!r} must be a (T + 1,) or (T + 1, n) table")
        if table.ndim == 1:
            table = table[:, None]
        head = _csv_fields(name)
        columns.append(([f"{head}{c}," for c in range(table.shape[1])], table))
    if len({len(table) for _, table in columns}) > 1:
        raise InputError("all components must share one time range")
    for i in range(len(columns[0][1]) if columns else 0):
        t = str(start + i)
        lines = []
        for fields, table in columns:
            row = table[i]
            if row.dtype.kind == "c":
                re, im = row.real.tolist(), row.imag.tolist()
            else:
                re, im = row.tolist(), repeat(0.0)
            lines += [f"{t}{f}{x!r},{y!r}\n" for f, x, y in zip(fields, re, im)]
        fh.write("".join(lines))


def _csv_fields(name: str) -> str:
    """``",name,"``: the separators around ``name`` in a ``csv.writer`` row."""
    buf = _io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["", name, ""])
    return buf.getvalue()[:-1]


# the C encoder's text for non-finite floats -> the strings a report carries instead
_NON_FINITE = {"NaN": '"nan"', "Infinity": '"inf"', "-Infinity": '"-inf"'}


def _write_value(obj, level: int, write) -> None:
    """Hand the JSON text of ``obj``, nested ``level`` deep, to ``write``."""
    if isinstance(obj, np.ndarray):
        _write_array(obj, level, write)
    elif isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}
        _write_items(
            "{}", [(json.dumps(key) + ": ", items[key]) for key in sorted(items)], level, write
        )
    elif isinstance(obj, (list, tuple)):
        _write_items("[]", [("", v) for v in obj], level, write)
    elif isinstance(obj, complex):
        _write_value([obj.real, obj.imag], level, write)
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        write(repr(x) if math.isfinite(x) else f'"{x!r}"')
    elif isinstance(obj, np.integer):
        write(str(obj.item()))
    else:
        write(json.dumps(obj))


def _write_items(brackets: str, items: list, level: int, write) -> None:
    if not items:
        write(brackets)
        return
    inner = "\n" + "  " * (level + 1)
    lead = brackets[0] + inner
    for head, value in items:
        write(lead + head)
        _write_value(value, level + 1, write)
        lead = "," + inner
    write("\n" + "  " * level + brackets[1])


def _write_array(a: np.ndarray, level: int, write) -> None:
    """A float array with each leaf on its own line, one leading-axis row
    at a time (a 1-D array is one row).

    Complex entries become a trailing [re, im] axis.  Each row's leaf texts
    come from one C-encoder call and are interleaved with one separator
    pattern, built once: each separator closes and reopens as many brackets
    as axes roll over between its two leaves.
    """
    if a.dtype.kind == "c":
        a = np.stack([a.real, a.imag], -1)
    if a.dtype.kind != "f" or a.ndim == 0 or a.size == 0:
        _write_value(a.tolist(), level, write)
        return
    rank = a.ndim
    rows = a.reshape(a.shape[0] if rank > 1 else 1, -1)
    width = rows.shape[1]
    ind = ["\n" + "  " * k for k in range(level + rank + 1)]

    def rollover(k: int) -> str:
        # the separator after a leaf where the k innermost axes roll over
        close = "".join(ind[level + rank - j] + "]" for j in range(1, k + 1))
        reopen = "".join(ind[level + j] + "[" for j in range(rank - k, rank))
        return close + "," + reopen + ind[-1]

    # leaves go to the even slots, separators sit in the odd ones
    body = [rollover(0)] * (2 * width - 1)
    stride = 1
    for k in range(1, rank - 1):
        stride *= a.shape[rank - k]
        body[2 * stride - 1 :: 2 * stride] = [rollover(k)] * (width // stride - 1)
    between = rollover(rank - 1)
    finite = np.isfinite(rows)
    patch = not finite.all()
    write("[" + "".join(ind[level + j] + "[" for j in range(1, rank)) + ind[-1])
    for i, row in enumerate(rows):
        leaves = json.dumps(row.tolist())[1:-1].split(", ")
        if patch:
            for j in np.flatnonzero(~finite[i]):
                leaves[j] = _NON_FINITE[leaves[j]]
        body[::2] = leaves
        if i:
            write(between)
        write("".join(body))
    write("".join(ind[level + j] + "]" for j in range(rank - 1, -1, -1)))


def _write_report(report: dict, fh) -> None:
    """Write the text of ``dumps_report(report)`` to the text stream ``fh``
    while it is encoded: no whole-document string is built."""
    _write_value(report, 0, fh.write)
    fh.write("\n")


def dumps_report(report: dict) -> str:
    """Deterministic JSON text for a report dictionary.

    Keys are sorted and nesting is indented by two spaces.  Floats are
    written as their shortest repr, complex values as [re, im], and NaN and
    infinities as the strings "nan", "inf" and "-inf".  The text is that of
    the streaming writer the command line uses, collected in memory.
    """
    buf = _io.StringIO()
    _write_report(report, buf)
    return buf.getvalue()

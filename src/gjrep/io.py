"""Serialization: pencils and models from JSON, trajectories to CSV, reports to JSON.

Complex scalars travel as two-element ``[re, im]`` arrays.  All emitted
JSON is deterministic: keys sorted, trailing newline, no timestamps.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from typing import Any

import numpy as np

from .arma import ArmaModel, NoiseSpec, Trajectory
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
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "component", "coordinate", "re", "im"])
    names = sorted(components)
    if not names:
        return buf.getvalue()
    rows = {name: np.asarray(components[name]) for name in names}
    length = {arr.shape[0] for arr in rows.values()}
    if len(length) != 1:
        raise InputError("all components must share one time range")
    for i in range(length.pop()):
        t = start + i
        for name in names:
            vec = rows[name][i]
            for coord, z in enumerate(np.atleast_1d(vec)):
                z = complex(z)
                writer.writerow([t, name, coord, repr(z.real), repr(z.imag)])
    return buf.getvalue()


def trajectory_to_csv(traj: Trajectory, component: str = "x") -> str:
    return components_to_csv({component: traj.values}, traj.start)


# the C encoder's text for non-finite floats -> the strings a report carries instead
_NON_FINITE = {"NaN": '"nan"', "Infinity": '"inf"', "-Infinity": '"-inf"'}


def _write_value(obj, level: int, out: list[str]) -> None:
    """Append the JSON text of ``obj``, nested ``level`` deep, to ``out``."""
    if isinstance(obj, np.ndarray):
        _write_array(obj, level, out)
    elif isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}
        _write_items(
            "{}", [(json.dumps(key) + ": ", items[key]) for key in sorted(items)], level, out
        )
    elif isinstance(obj, (list, tuple)):
        _write_items("[]", [("", v) for v in obj], level, out)
    elif isinstance(obj, complex):
        _write_value([obj.real, obj.imag], level, out)
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append(repr(x) if math.isfinite(x) else f'"{x!r}"')
    elif isinstance(obj, np.integer):
        out.append(str(obj.item()))
    else:
        out.append(json.dumps(obj))


def _write_items(brackets: str, items: list, level: int, out: list[str]) -> None:
    if not items:
        out.append(brackets)
        return
    inner = "\n" + "  " * (level + 1)
    lead = brackets[0] + inner
    for head, value in items:
        out.append(lead + head)
        _write_value(value, level + 1, out)
        lead = "," + inner
    out.append("\n" + "  " * level + brackets[1])


def _write_array(a: np.ndarray, level: int, out: list[str]) -> None:
    """A float array as one block of leaves, each on its own line.

    Complex entries become a trailing [re, im] axis.  The leaf texts come
    from one C-encoder call; each separator closes and reopens as many
    brackets as axes roll over between its two leaves.
    """
    if a.dtype.kind == "c":
        a = np.stack([a.real, a.imag], -1)
    if a.dtype.kind != "f" or a.ndim == 0 or a.size == 0:
        _write_value(a.tolist(), level, out)
        return
    flat = a.ravel()
    leaves = json.dumps(flat.tolist())[1:-1].split(", ")
    for i in np.flatnonzero(~np.isfinite(flat)):
        leaves[i] = _NON_FINITE[leaves[i]]
    rank, size = a.ndim, flat.size
    ind = ["\n" + "  " * k for k in range(level + rank + 1)]
    seps = ["," + ind[-1]] * (size - 1)
    stride = 1
    for k in range(1, rank):
        stride *= a.shape[rank - k]
        close = "".join(ind[level + rank - j] + "]" for j in range(1, k + 1))
        reopen = "".join(ind[level + j] + "[" for j in range(rank - k, rank))
        seps[stride - 1 :: stride] = [close + "," + reopen + ind[-1]] * (size // stride - 1)
    body = [""] * (2 * size - 1)
    body[::2] = leaves
    body[1::2] = seps
    out.append("[" + "".join(ind[level + j] + "[" for j in range(1, rank)) + ind[-1])
    out.append("".join(body))
    out.append("".join(ind[level + j] + "]" for j in range(rank - 1, -1, -1)))


def dumps_report(report: dict) -> str:
    """Deterministic JSON text for a report dictionary.

    Keys are sorted and nesting is indented by two spaces.  Floats are
    written as their shortest repr, complex values as [re, im], and NaN and
    infinities as the strings "nan", "inf" and "-inf".
    """
    out: list[str] = []
    _write_value(report, 0, out)
    out.append("\n")
    return "".join(out)

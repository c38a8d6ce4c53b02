"""Every bundled scenario's CLI-default outputs, a sampled-mode set and the
`scenarios/rate/` bound are pinned by sha256 and size in `pinned_outputs.json`.

A change that moves outputs on purpose regenerates the table in the same
commit, with `PYTHONPATH=src python tests/test_pinned_outputs.py`, so that the
table's diff names every output that moved.  A failure names each moved file
and prints the text of each moved JSON summary.  The digests hold for the
numeric platform recorded in the table: the numpy and BLAS build, numpy's
active SIMD dispatch and the OpenBLAS core.  A mismatch on another platform
names each of these fields that differs.
"""

import ctypes
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qsdcsim.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
TABLE = Path(__file__).with_name("pinned_outputs.json")

# run key -> (command, scenario, extra options); a default run's key is its scenario
RUNS = {
    path.stem: (json.loads(path.read_text())["kind"], path.stem, [])
    for path in sorted(SCENARIOS.glob("*.json"))
}
for command, scenario, extra in [
    ("ac", "ac15_pnp", ["--shots", "16", "--seed", "5"]),
    ("dc", "dc9", ["--shots", "16", "--seed", "5"]),
    ("consensus", "consensus3_qdc_mixed", ["--backend", "bloch", "--shots", "2"]),
    ("rate", "rate/ring5_weighted", []),
]:
    RUNS[" ".join([scenario, *extra])] = (command, scenario, extra)


def blas_core() -> str:
    """The core whose kernels OpenBLAS runs (OPENBLAS_CORETYPE overrides it),
    read through ctypes from the OpenBLAS library of a numpy wheel, which
    numpy has loaded; "unknown" when it cannot be read."""
    numpy_dir = Path(np.__file__).parent
    libs = sorted([*numpy_dir.parent.glob("numpy.libs/*openblas*"),
                   *numpy_dir.glob(".dylibs/*openblas*")])
    for path in libs:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        # the symbol's prefix and suffix depend on how OpenBLAS was built
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return "unknown"


def build() -> dict:
    """The numeric platform: the numpy and BLAS build, numpy's SIMD dispatch
    as `np.show_runtime` reports it (the baseline and the found extensions;
    NPY_DISABLE_CPU_FEATURES takes extensions out of it) and `blas_core`."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    found = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__[name]]
    return {"build": f"numpy {np.__version__}, {blas['name']} {blas['version']}",
            "simd": f"baseline {' '.join(umath.__cpu_baseline__)}; found {' '.join(found)}",
            "blas_core": blas_core()}


def platform_note(table: dict) -> str:
    """Each field of `build()` that differs from the table's, or ""."""
    differs = [f"{field} is {value!r} here, {table.get(field)!r} in the table"
               for field, value in build().items() if value != table.get(field)]
    return f" (the numeric platform differs: {'; '.join(differs)})" if differs else ""


def run_digests(key: str, out_dir: Path) -> dict:
    command, scenario, extra = RUNS[key]
    argv = [command, "--scenario", str(SCENARIOS / f"{scenario}.json"), *extra]
    assert main(argv + ["--out", str(out_dir)]) == 0
    return {
        f.name: {"sha256": hashlib.sha256(f.read_bytes()).hexdigest(),
                 "size": f.stat().st_size}
        for f in sorted(out_dir.iterdir())
    }


@pytest.mark.parametrize("key", RUNS)
def test_bundled_outputs_match_pinned_digests(key, tmp_path, monkeypatch):
    monkeypatch.delenv("QSDC_OUT_DIR", raising=False)
    table = json.loads(TABLE.read_text())
    want = table["runs"].get(key)
    assert want is not None, f"no pinned digests for run {key!r} in {TABLE.name}"
    got = run_digests(key, tmp_path)
    moved = sorted(name for name in want.keys() | got.keys()
                   if want.get(name) != got.get(name))
    note = platform_note(table)
    texts = "".join(f"\n{name}:\n{(tmp_path / name).read_text()}" for name in moved
                    if name.endswith(".json") and (tmp_path / name).exists())
    assert not moved, (f"{key}: outputs differ from the pinned digests: "
                       f"{', '.join(moved)}{note}{texts}")


def test_platform_note_names_the_differing_field():
    table = json.loads(TABLE.read_text())
    assert set(build()) <= set(table)  # the table records every platform field
    here = build()
    assert platform_note(here) == ""
    note = platform_note(dict(here, simd="baseline X86_V2; found X86_V3"))
    assert "simd is " in note and "build" not in note


def test_platform_note_names_the_blas_core():
    here = build()
    assert here["blas_core"]  # a core name, or "unknown"
    note = platform_note(dict(here, blas_core="Prescott"))
    assert f"blas_core is {here['blas_core']!r} here, 'Prescott' in the table" in note
    assert "simd" not in note and "build" not in note


if __name__ == "__main__":
    os.environ.pop("QSDC_OUT_DIR", None)
    runs = {}
    for key in RUNS:
        with tempfile.TemporaryDirectory() as d:
            runs[key] = run_digests(key, Path(d))
    TABLE.write_text(json.dumps({**build(), "runs": runs}, indent=1, sort_keys=True) + "\n")

"""Every bundled scenario's CLI-default outputs, a sampled-mode set and the
`scenarios/rate/` bound are pinned by sha256 and size in `pinned_outputs.json`.

A change that moves outputs on purpose regenerates the table in the same
commit, with `PYTHONPATH=src python tests/test_pinned_outputs.py`, so that the
table's diff names every output that moved.  A failure names each moved file
and prints the text of each moved JSON summary.  The digests hold for the
numpy and BLAS build recorded in the table; a mismatch under another build
says so.
"""

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


def build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}"


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
    note = ("" if build() == table["build"] else
            f" (this build is {build()}; the table was recorded under {table['build']})")
    texts = "".join(f"\n{name}:\n{(tmp_path / name).read_text()}" for name in moved
                    if name.endswith(".json") and (tmp_path / name).exists())
    assert not moved, (f"{key}: outputs differ from the pinned digests: "
                       f"{', '.join(moved)}{note}{texts}")


if __name__ == "__main__":
    os.environ.pop("QSDC_OUT_DIR", None)
    runs = {}
    for key in RUNS:
        with tempfile.TemporaryDirectory() as d:
            runs[key] = run_digests(key, Path(d))
    TABLE.write_text(json.dumps({"build": build(), "runs": runs}, indent=1, sort_keys=True)
                     + "\n")

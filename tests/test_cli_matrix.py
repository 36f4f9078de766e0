"""Golden test of the CLI command matrix on the corpus.

Every subcommand runs in-process through ``bvsum.cli.main(argv)`` on all
corpus specs, plus copies of a few specs with their piece antiderivatives
removed, at two tolerances.  On those copies ``sum``, ``gamma`` and
``verify --check midvalue`` integrate by midpoint-trapezoid brackets
(cells classed convex, concave, flat or neither by sampled second
differences; beta1 reduced to such integrals by parts), and ``verify
--check parts`` by brackets of g o f^-1 on pairs of cells (classed by
cross differences, capped by Darboux brackets).  Exit code, stdout and
stderr must match ``golden_cli_matrix.json`` byte for byte.

The golden file records the output of the code as it stands; re-record it
only when a change of output is intended, and say so in CHANGES.md:

    PYTHONPATH=src python3 tests/test_cli_matrix.py --record
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
GOLDEN = HERE / "golden_cli_matrix.json"
TMP = "{tmp}"

TOLS = ("1e-10", "1e-5")
PARTS_TOLS = ("1e-4", "1e-5")  # the mid-value route refines a posteriori
BARE = ("harmonic", "mixed_jumps", "sin_arches", "sqrt", "vshape")


def _corpus_specs() -> dict[str, dict]:
    return {p.stem: json.loads(p.read_text())
            for p in sorted((REPO / "corpus").glob("*.json"))}


def _bare(spec: dict) -> dict:
    """The spec with every piece antiderivative removed (the tail keeps its)."""
    out = json.loads(json.dumps(spec))
    for piece in out["pieces"]:
        piece.pop("antiderivative", None)
    return out


def _requests(path: str, spec: dict) -> list[list[str]]:
    lo = float(spec["domain"]["lo"])
    hi = math.inf if spec["domain"]["hi"] == "inf" else float(spec["domain"]["hi"])
    top = min(hi, lo + 8.0)
    a = max(0, math.ceil(lo))
    b = a + 6 if math.isinf(hi) else min(a + 6, math.floor(hi))
    out = [
        ["variation", path, "--lo", repr(lo), "--hi", repr(top), "--json"],
        ["variation", path, "--lo", repr(lo), "--hi", repr(top),
         "--open-lo", "--open-hi", "--json"],
        ["verify", path, "--check", "pvv", "--a", repr(lo), "--b", repr(top), "--json"],
        ["convergence", path, "--json"],
    ]
    for tol in TOLS:
        out += [
            ["sum", path, "--a", str(a), "--b", str(b), "--tol", tol, "--json"],
            ["series", path, "--n", "10", "--tol", tol, "--json"],
            ["series", path, "--n", "3,20", "--csv", "--oracle", "1.5", "--tol", tol],
            ["gamma", path, "--n", "10", "--tol", tol, "--json"],
            ["gamma", path, "--n", "3,20", "--csv", "--tol", tol],
            ["verify", path, "--check", "midvalue", "--a", str(a), "--b", str(b),
             "--tol", tol, "--json"],
        ]
    for tol in PARTS_TOLS:
        out.append(["verify", path, "--check", "parts", "--a", str(a),
                    "--b", str(a + 1), "--tol", tol, "--json"])
    # human output, at the default tolerance only
    out += [argv[:-1] for argv in out if argv[-1] == "--json" and
            (argv[0] in ("variation", "convergence") or argv[-2] == TOLS[0])]
    return out


def matrix(tmp: Path) -> dict[str, list[str]]:
    """Golden key -> argv; bare specs are written under tmp."""
    reqs = {}
    for name, spec in _corpus_specs().items():
        specs = [(f"corpus/{name}.json", spec)]
        if name in BARE:
            bare = tmp / f"{name}_bare.json"
            bare.write_text(json.dumps(_bare(spec)))
            specs.append((str(bare), _bare(spec)))
        if name == "sin_arches":  # a tighter tol on six bracketed arches
            reqs[f"sum {TMP}/{name}_bare.json --a 0 --b 6 --tol 1e-6 --json"] = [
                "sum", str(bare), "--a", "0", "--b", "6", "--tol", "1e-6", "--json"]
        for path, s in specs:
            for argv in _requests(path, s):
                reqs[" ".join(argv).replace(str(tmp), TMP)] = argv
    return reqs


def run(argv: list[str], tmp: Path) -> list:
    from bvsum.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue().replace(str(tmp), TMP),
            err.getvalue().replace(str(tmp), TMP)]


_GOLDEN = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.fixture(scope="module")
def requests(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bare")
    return tmp, matrix(tmp)


def test_matrix_matches_golden_keys(requests):
    assert sorted(requests[1]) == sorted(_GOLDEN)


@pytest.mark.parametrize("key", sorted(_GOLDEN))
def test_cli_matrix(key, requests, monkeypatch):
    monkeypatch.chdir(REPO)
    tmp, reqs = requests
    assert run(reqs[key], tmp) == _GOLDEN[key]


def record() -> None:
    import os
    import tempfile

    os.chdir(REPO)
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        golden = {key: run(argv, tmp) for key, argv in matrix(tmp).items()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} requests into {GOLDEN.relative_to(REPO)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_cli_matrix.py --record")
    record()

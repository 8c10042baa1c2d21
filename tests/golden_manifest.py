"""The byte-identical set: CLI artifacts and demo stdout that every change
keeps bit for bit unless it re-baselines them on purpose.

`tests/golden/manifest.json` holds the sha256 of every entry, with the numpy
and scipy versions it was made with; `tests/golden/reference.json.xz` holds
the entries' text, so a mismatch can be shown row by row.  Run this file to
rewrite both from the current source:

    PYTHONPATH=src python tests/golden_manifest.py

The set is generated in a fresh process (`fresh_texts`), with one OpenBLAS
thread unless told otherwise: the tests check that two threads give the
same bytes.  (scipy's complex LU solve, zgetrs, gave different last bits
at two threads; the Radau step's solves are numpy's gesv, which does not.)

It prints every entry that changed, with its number of changed rows and the
largest |delta| / max(|y|, 1), the measure ROADMAP's re-baselining rule asks
a changing PR to report.
"""
import contextlib
import hashlib
import io
import json
import lzma
import os
import re
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

import ticsp
from ticsp.cli import main

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
MANIFEST = GOLDEN / "manifest.json"
REFERENCE = GOLDEN / "reference.json.xz"
DEMOS = sorted((TESTS.parent / "demos").glob("*.py"))

#: output directory -> CLI arguments of the command that fills it
COMMANDS = {
    **{f"{command}-{case}": [command, "--scenario", case]
       for case in ("TP", "TR", "TP1", "TR1")
       for command in ("report", "reduce", "simulate", "csp")},
    "equilibria": ["equilibria"],
    "bifurcate-d": ["bifurcate", "--param", "d", "--from", "0.05", "--to", "1.0"],
    "threshold": ["threshold", "--bracket", "319000", "320000"],
    "perturb-TP-e0.6": ["perturb", "--scenario", "TP", "--param", "e", "--factor", "0.6"],
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def generate(root: Path) -> dict[str, str]:
    """Every entry of the set, name -> text: the artifacts written under
    `root` by `COMMANDS`, then each demo's stdout (run in `root`)."""
    texts = {}
    for leaf, argv in COMMANDS.items():
        if main([*argv, "--out", str(root / leaf)]) != 0:
            raise RuntimeError(f"ticsp {' '.join(argv)} failed")
        for path in sorted((root / leaf).iterdir()):
            texts[f"{leaf}/{path.name}"] = path.read_text()
    cwd = os.getcwd()
    try:
        os.chdir(root)
        for demo in DEMOS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                runpy.run_path(str(demo), run_name="__main__")
            texts[f"demos/{demo.name}.stdout"] = out.getvalue()
    finally:
        os.chdir(cwd)
    return texts


def fresh_texts(root: Path, threads: int = 1) -> dict[str, str]:
    """`generate(root)` in a new interpreter with OPENBLAS_NUM_THREADS set
    to `threads`, on the ticsp this process imports."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    src = str(Path(ticsp.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, __file__, "--generate", str(root)], env=env, check=True)
    return json.loads((root / "texts.json").read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def load_reference() -> dict[str, str]:
    return json.loads(lzma.decompress(REFERENCE.read_bytes()))


def _numbers(row: str) -> list[float]:
    return [float(v) for v in _NUMBER.findall(row)]


def describe_change(name: str, old: str, new: str) -> str:
    """Where `new` departs from `old`: the first differing row, the number
    of changed rows and the largest |delta| / max(|y|, 1) over the numbers
    of the changed rows that keep their shape."""
    a, b = old.splitlines(), new.splitlines()
    changed = [i for i in range(max(len(a), len(b)))
               if i >= len(a) or i >= len(b) or a[i] != b[i]]
    if not changed:
        return f"{name}: same rows, different bytes (line endings)"
    first = changed[0]
    worst = 0.0
    for i in changed:
        if i < len(a) and i < len(b):
            x, y = _numbers(a[i]), _numbers(b[i])
            if len(x) == len(y):
                for u, v in zip(x, y):
                    if u != v:
                        worst = max(worst, abs(v - u) / max(abs(u), 1.0))
    row = lambda lines: repr(lines[first]) if first < len(lines) else "(no row)"
    return (f"{name}: {len(changed)} of {len(a)} rows changed "
            f"({len(b)} now), first at row {first + 1}: {row(a)} -> {row(b)}; "
            f"largest |delta| / max(|y|, 1) = {worst:.3e}")


def rewrite() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        texts = fresh_texts(Path(tmp))
    old = load_reference()
    for name in sorted(set(old) | set(texts)):
        if name not in texts:
            print(f"{name}: removed")
        elif name not in old:
            print(f"{name}: new")
        elif old[name] != texts[name]:
            print(describe_change(name, old[name], texts[name]))
    manifest = {**versions(), "sha256": {name: sha256(t) for name, t in sorted(texts.items())}}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    REFERENCE.write_bytes(lzma.compress(json.dumps(texts, sort_keys=True).encode(), preset=9))
    print(f"wrote {len(texts)} entries to {MANIFEST} and {REFERENCE}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--generate"]:
        root = Path(sys.argv[2])
        (root / "texts.json").write_text(json.dumps(generate(root)))
        sys.exit(0)
    sys.exit(rewrite())

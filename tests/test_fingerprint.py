"""Every run of ``tests/fingerprint.py`` is bit-identical to ``fingerprint.expected``.

The expected file starts with the script's header, numpy's version and the
SIMD extensions its dispatch found.  The hashes depend on both, so on a
machine whose header differs the test skips and names the difference; it
never passes there.  A change that moves numbers on purpose regenerates the
file as the script's docstring says and names the moved runs.
"""

import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

TESTS = Path(__file__).parent


def _split(text: str) -> tuple[list[str], dict[str, list[str]]]:
    """(header lines, the other lines grouped by their run, the first word)."""
    header, runs = [], {}
    for line in text.splitlines():
        if line.startswith("#"):
            header.append(line)
        else:
            runs.setdefault(line.split(" ", 1)[0], []).append(line)
    return header, runs


def test_runs_match_the_expected_file():
    path = os.pathsep.join(filter(None, [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(TESTS / "fingerprint.py")],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    header, runs = _split(done.stdout)
    want_header, want = _split((TESTS / "fingerprint.expected").read_text())
    if header != want_header:
        pytest.skip("fingerprint.expected is for another machine: "
                    + "; ".join(f"{w!r} there, {h!r} here"
                                for w, h in zip_longest(want_header, header, fillvalue="")
                                if w != h))
    moved = [name for name in {**want, **runs} if runs.get(name) != want.get(name)]
    assert not moved, f"runs moved ({len(moved)}): {', '.join(moved)}"

"""Exit-code fuzz of the two readers and the CLI: mutated small valid
inputs must give exit 0, 1 or 2, never an internal error, and a usage
error (exit 2) is one stderr line."""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitals.cli import main
from unitals.confluence import build_confluence, format_dimacs
from unitals.incidence import affine_plane, format_json, hermitian_unital, projective_plane

TOKENS = [b"[", b"]", b"{", b'"', b",", b"-1", b"1e999", b"NaN", b"true", b"7" * 5000,
          b"\xff", b"[" * 100_000 + b"]" * 100_000]

SEEDS = {
    "pg2": format_json(projective_plane(2)).encode(),
    "ag3": format_json(affine_plane(3)).encode(),
    "h2-dimacs": format_dimacs(build_confluence(hermitian_unital(2))).encode(),
}


@st.composite
def mutations(draw, seed: bytes) -> bytes:
    """seed after one to three byte flips, cut or repeated slices and
    inserted tokens."""
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "cut", "repeat", "insert"]))
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 40)))
        if kind == "flip" and i < len(data):
            data[i] ^= 1 << draw(st.integers(0, 7))
        elif kind == "cut":
            del data[i:j]
        elif kind == "repeat":
            data[i:i] = data[i:j] * draw(st.integers(1, 3))
        elif kind == "insert":
            data[i:i] = draw(st.sampled_from(TOKENS))
    return bytes(data)


def _check_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    message = err.getvalue()
    assert code in (0, 1, 2), (argv, code, message)
    assert "internal error" not in message, (argv, message)
    if code == 2:
        assert len(message.splitlines()) == 1, (argv, message)


@pytest.mark.parametrize("name", sorted(SEEDS))
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_inputs_exit_0_1_or_2(name, data):
    content = data.draw(mutations(SEEDS[name]), label="content")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(content)
        if name.endswith("-dimacs"):
            argvs = [["reconstruct", path]]
        else:
            argvs = [["graph", path], ["srg", path], ["cliques", path, "--classify"],
                     ["onan", path], ["classify-linspace", path, "--q", "3"],
                     ["isomorphic", path, path]]
        for argv in argvs:
            _check_exit(argv)

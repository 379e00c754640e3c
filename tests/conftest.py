import contextlib
import io
import math

import pytest

from sweepslide.cli import main

# The acceptance corpus: `sweepslide verify`'s defaults.
VERIFY_TRIALS = 10_000
VERIFY_SEED = 2024


@pytest.fixture(scope="session")
def verify_run():
    """``sweepslide verify`` run once per session: its exit code and stdout.

    The acceptance suite and the CLI test both read this one run of the
    ten checks.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--trials", str(VERIFY_TRIALS), "--seed", str(VERIFY_SEED)])
    return code, out.getvalue()


@pytest.fixture
def heightfield_obj(tmp_path):
    """Writes ``size`` x ``size`` unit quads over bumpy heights as an OBJ file.

    The factory returns the file's path and the corners of each face in
    file order, two triangles per quad.
    """
    def write(size: int):
        vertex = [[(float(i), float(j), math.sin(0.7 * i) * math.cos(0.5 * j) + 0.1 * i)
                   for j in range(size + 1)] for i in range(size + 1)]
        lines = [f"v {x!r} {y!r} {z!r}" for row in vertex for x, y, z in row]
        corners = []
        for i in range(size):
            for j in range(size):
                a, b = i * (size + 1) + j + 1, (i + 1) * (size + 1) + j + 1
                lines += [f"f {a} {b} {b + 1}", f"f {a} {b + 1} {a + 1}"]
                corners += [(vertex[i][j], vertex[i + 1][j], vertex[i + 1][j + 1]),
                            (vertex[i][j], vertex[i + 1][j + 1], vertex[i][j + 1])]
        path = tmp_path / f"heightfield-{size}.obj"
        path.write_text("\n".join(lines) + "\n")
        return path, corners

    return write

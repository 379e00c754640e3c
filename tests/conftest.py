import contextlib
import io

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

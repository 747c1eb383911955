"""Record the reference outputs that the benchmark's checks compare against.

    python3 bench/record_references.py

Writes ``references/fig1`` and ``references/fig5`` (the files of
``lundberg reproduce fig1`` and ``fig5``) and ``company_survival.npy``
(criterion 9's company survival curve on the fine decomposition).  Run
it only at a commit whose outputs are known to be right: the checks
treat these files as the truth.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys

import numpy as np

from run import import_program
from workloads import REFERENCES, fine_company_curve


def main() -> int:
    import_program()
    from lundberg import cli

    REFERENCES.mkdir(exist_ok=True)
    for figure in ("fig1", "fig5"):
        shutil.rmtree(REFERENCES / figure, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["reproduce", figure, "--out-dir", str(REFERENCES)])
        if code != 0:
            raise SystemExit(f"lundberg reproduce {figure} exited with {code}")
    _, curve = fine_company_curve()
    np.save(REFERENCES / "company_survival.npy", curve.survival)
    return 0


if __name__ == "__main__":
    sys.exit(main())

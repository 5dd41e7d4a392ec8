"""Regenerate perfbench/reference.json from the current source tree.

    python3 perfbench/make_reference.py

Runs every variant of every workload once through `ilwbo.cli.main` and
stores what `checks.observe` records.  Evolve and solitary invocations are
expected to exit 0; a solitary case that does not converge keeps its
observed outcome under "baseline" and is checked, should it converge later,
against the mw = 1 wave of the same speed at the looser cross-width
tolerance.  Only regenerate when a change is meant to alter results.
"""

from __future__ import annotations

import json
import shutil
import sys

from checks import CROSS_WIDTH_RTOL, WAVE_RTOL, observe
from run import HERE, OUT, ROOT, import_package, run_invocation
from workloads import NAMES, SOLITARY_TOL, kinds


def main() -> int:
    cli = import_package()
    work = OUT / "make-reference"
    reference: dict = {}
    try:
        for workload in NAMES:
            entries = reference[workload] = {}
            for variants in kinds(workload, ROOT).values():
                for inv in variants:
                    seconds, code, error = run_invocation(cli, inv, work)
                    obs = observe(inv.command, code, work / "out")
                    entry = {"exit": 0}
                    if inv.command == "evolve":
                        entry["fingerprint"] = obs["fingerprint"]
                    elif inv.command == "solitary":
                        entry.update(tol=SOLITARY_TOL, wave_rtol=WAVE_RTOL,
                                     fingerprint=obs.get("fingerprint"),
                                     baseline={"exit": code, "error": error,
                                               "solves": obs.get("solves")})
                    else:
                        entry.update(exit=code, experiments=obs["experiments"])
                    entries[inv.key] = entry
                    print(f"{workload} {inv.key}: exit={code} {seconds:.2f}s {error or ''}",
                          file=sys.stderr)
            for key, entry in entries.items():
                if entry.get("fingerprint", True) is None:
                    entry["fingerprint"] = entries[key.rsplit("-mw", 1)[0] + "-mw1"]["fingerprint"]
                    entry["wave_rtol"] = CROSS_WIDTH_RTOL
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

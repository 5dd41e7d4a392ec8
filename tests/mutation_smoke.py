"""Seeded mutation smoke: how much of `src/` does the test suite guard?

    python tests/mutation_smoke.py

Run by hand from the repository root; pytest does not collect this file, and
a full run takes minutes.  It copies `src/`, `tests/`, `configs/`,
`perfbench/` and `pyproject.toml` into a temporary directory and mutates only
that copy, one mutation at a time, never the checkout.  The mutation sites
are those of `src/ilwbo/*.py` but `__init__.py` and `errors.py`:

* a comparison `<`/`<=`, `>`/`>=` or `==`/`!=` swapped;
* an arithmetic `+`/`-` or `*`/`/` swapped, in an expression or an augmented
  assignment;
* a boolean `and`/`or` swapped;
* an int constant plus 1, or a float constant times 2.

`COUNT` sites are drawn with `random.Random(SEED)` from the sorted list of
all sites; `EQUIVALENT` is kept for that draw.  Each mutant runs the tier-1
suite with `-x`, a fixed hypothesis seed and the two known-red acceptance
tests deselected: it is killed when the suite fails or runs past `TIMEOUT_S`
seconds, and it survives when the suite passes.  A survivor in `EQUIVALENT` is reported with its reason; any other
survivor is a gap in the tests.  The exit status is 1 when such a gap is
found or the unmutated copy fails, else 0.
"""

from __future__ import annotations

import ast
import io
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "configs", "perfbench", "pyproject.toml")
SKIPPED_MODULES = ("__init__.py", "errors.py")
KNOWN_RED = (
    "tests/test_acceptance.py::TestAcceptance::test_c04_algebraic_residual_ilw",
    "tests/test_acceptance.py::TestAcceptance::test_c06_tail_decay_ilw",
)
# A mutant that allocates without bound fails inside its own process, not
# the machine's.
ADDRESS_SPACE_BYTES = 4 << 30
SEED = 11
COUNT = 150
TIMEOUT_S = 120.0

SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
         "+": "-", "-": "+", "*": "/", "/": "*",
         "+=": "-=", "-=": "+=", "*=": "/=", "/=": "*=", "and": "or", "or": "and"}

# Mutants the suite cannot kill, keyed by (module, the source line, the
# mutated line), both stripped: none changes what the program does.  An entry
# that matches no site is reported as stale.
EQUIVALENT: dict[tuple[str, str, str], str] = {
    ("_shortest.py",
     "return _frozen(chars.astype(np.uint8).reshape(-1, _STRIDE))",
     "return _frozen(chars.astype(np.uint8).reshape(-2, _STRIDE))"):
        "numpy's reshape takes any negative size as the one inferred dimension",
    ("_shortest.py",
     'out[rows, :WIDTH] = np.array(text, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)',
     'out[rows, :WIDTH] = np.array(text, dtype=f"S{WIDTH}").view(np.uint8).reshape(-2, WIDTH)'):
        "numpy's reshape takes any negative size as the one inferred dimension",
    ("io_utils.py",
     "fields.append(text.view(np.uint8).reshape(len(text), -1))",
     "fields.append(text.view(np.uint8).reshape(len(text), -2))"):
        "numpy's reshape takes any negative size as the one inferred dimension",
    ("io_utils.py",
     "block = np.frombuffer(buffer, np.uint8).reshape(len(fields[0]), -1)",
     "block = np.frombuffer(buffer, np.uint8).reshape(len(fields[0]), -2)"):
        "numpy's reshape takes any negative size as the one inferred dimension",
    ("evolution.py",
     "states = np.empty((2, 2, grid.n_modes // 2 + 1), dtype=complex)",
     "states = np.empty((3, 2, grid.n_modes // 2 + 1), dtype=complex)"):
        "the steps write rows i % 2 only: a third row is allocated and never used",
    ("io_utils.py",
     "while self._jobs and (len(self._jobs) > keep or self._jobs[0][1].done()):",
     "while self._jobs and (len(self._jobs) >= keep or self._jobs[0][1].done()):"):
        "the writer keeps one job fewer in flight: the same files, written and listed in "
        "the same order",
    ("cli.py",
     'n_steps = cfg["t_end"] / cfg["dt"] if positive else 1.0',
     'n_steps = cfg["t_end"] / cfg["dt"] if positive else 2.0'):
        "every placeholder step count below 20 resolves to record_every 1",
    ("_shortest.py",
     "_FIXED = 20  # point places p = -3..16 (0.d0 d1 ... x 10^p) written without an exponent",
     "_FIXED = 21  # point places p = -3..16 (0.d0 d1 ... x 10^p) written without an exponent"):
        "it adds a template row per digit count that no value uses: _place_tables sends "
        "every p outside -3..16 to the two exponent rows, _FIXED and _FIXED + 1",
    ("_shortest.py",
     "e = np.where(p < 1, 1 - p, p - 1)",
     "e = np.where(p < 2, 1 - p, p - 1)"):
        "at p = 1, the only place it moves, both branches give 0",
    ("io_utils.py",
     "self._runner = ForkJobs(fork_workers() if big else 0)",
     "self._runner = ForkJobs(fork_workers() if big else 1)"):
        "ForkJobs runs in-process when asked for fewer than 2 workers",
    ("io_utils.py",
     "JOBS_PER_WORKER = 2",
     "JOBS_PER_WORKER = 3"):
        "the writer keeps one job more in flight per worker: the same files, written and "
        "listed in the same order",
    ("_shortest.py",
     "zero = bits << 1 == 0",
     "zero = bits << 1 == 1"):
        "no value is a zero then, so a zero takes the subnormal path through repr, which "
        "writes the same 0.0 or -0.0",
    ("_shortest.py",
     "symmetric = (t != 0) | (biased == 1)",
     "symmetric = (t != 0) | (biased == 2)"):
        "it moves only +-2^-1022 and +-2^-1021, whose digits are the same from either "
        "interval; TestReprBytes writes all four",
    ("_shortest.py",
     "p = np.arange(-400, 400)",
     "p = np.arange(-400, 401)"):
        "it adds a table entry for p = 400, which no double reaches: p is at most 309",
    ("solitary.py",
     "i = int(np.argmin(np.abs(det) - floor))",
     "i = int(np.argmin(np.abs(det) + floor))"):
        "det S is affine in g, which grows with |k|, so a speed makes at most one mode "
        "singular, and its |det| is far below every other mode's: both pick it",
}


@dataclass(frozen=True)
class Site:
    module: str  # file name under src/ilwbo
    line: int
    col: int
    end_col: int  # the mutated text is source_line[col:end_col]
    original: str
    replacement: str
    source_line: str

    @property
    def text(self) -> str:
        return self.source_line.strip()

    @property
    def mutated_text(self) -> str:
        line = self.source_line
        return (line[:self.col] + self.replacement + line[self.end_col:]).strip()

    def key(self) -> tuple[str, str, str]:
        return self.module, self.text, self.mutated_text

    def __str__(self) -> str:
        return (f"{self.module}:{self.line}:{self.col + 1}: "
                f"{self.original} -> {self.replacement}  | {self.text}")


def _operator_token(tokens, start, end):
    """The first token in [start, end) that is not a bracket: the operator
    between two operands."""
    for tok in tokens:
        if start <= tok.start < end and tok.string not in "()[]{}":
            return tok
    raise ValueError(f"no operator between {start} and {end}")


def _constant(node: ast.Constant) -> str | None:
    """The mutated literal, or None for a value that is no number or that
    doubling leaves as it is (0.0)."""
    value = node.value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if isinstance(value, int):
        return repr(value + 1)
    return repr(value * 2.0) if value * 2.0 != value else None


def sites_of(module: str, source: str) -> list[Site]:
    """Every mutation site of one module, in source order; f-strings, which
    tokenize as one string, are left alone."""
    tree = ast.parse(source)
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type in (tokenize.OP, tokenize.NAME)]
    lines = source.splitlines()
    in_fstrings = {id(node) for top in ast.walk(tree) if isinstance(top, ast.JoinedStr)
                   for node in ast.walk(top)}
    found = []

    def swap(a, b):
        tok = _operator_token(tokens, (a.end_lineno, a.end_col_offset), (b.lineno, b.col_offset))
        if tok.string in SWAPS:  # not `is`, `in`, `not`, `**`, `%` and the like
            (line, col), (_, end_col) = tok.start, tok.end
            found.append(Site(module, line, col, end_col, tok.string, SWAPS[tok.string],
                              lines[line - 1]))

    for node in ast.walk(tree):
        if id(node) in in_fstrings:
            continue
        if isinstance(node, ast.Compare):
            for left, right in zip([node.left] + node.comparators, node.comparators):
                swap(left, right)
        elif isinstance(node, ast.BinOp):
            swap(node.left, node.right)
        elif isinstance(node, ast.AugAssign):
            swap(node.target, node.value)
        elif isinstance(node, ast.BoolOp):
            for left, right in zip(node.values, node.values[1:]):
                swap(left, right)
        elif isinstance(node, ast.Constant) and _constant(node) is not None:
            line = lines[node.lineno - 1]
            found.append(Site(module, node.lineno, node.col_offset, node.end_col_offset,
                              line[node.col_offset:node.end_col_offset], _constant(node), line))
    return sorted(found, key=lambda site: (site.line, site.col))


def all_sites(src: Path) -> list[Site]:
    return [site for path in sorted(src.glob("*.py")) if path.name not in SKIPPED_MODULES
            for site in sites_of(path.name, path.read_text())]


def mutated(source: str, site: Site) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[site.line - 1]
    assert text.rstrip("\r\n") == site.source_line, site
    lines[site.line - 1] = text[:site.col] + site.replacement + text[site.end_col:]
    return "".join(lines)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def run_suite(copy: Path, timeout: float) -> str:
    """"passed", "failed" or "timeout" for the tier-1 suite of `copy`."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    args = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *(f"--deselect={test}" for test in KNOWN_RED)]
    proc = subprocess.Popen(args, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True,
                            preexec_fn=_limit_memory)
    try:
        return "passed" if proc.wait(timeout) == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the suite and the pool workers it forked
        proc.wait()
        return "timeout"


def main() -> int:
    sites = all_sites(ROOT / "src" / "ilwbo")
    stale = set(EQUIVALENT) - {site.key() for site in sites}
    for key in sorted(stale):
        print(f"stale EQUIVALENT entry, matching no site: {key}")
    chosen = random.Random(SEED).sample(sites, min(COUNT, len(sites)))
    print(f"{len(sites)} sites; {len(chosen)} mutants, seed {SEED}", flush=True)

    with tempfile.TemporaryDirectory(prefix="mutation-smoke-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name, ignore=ignore)
            else:
                shutil.copy2(ROOT / name, copy / name)
        if run_suite(copy, TIMEOUT_S) != "passed":
            print("the unmutated copy fails its tests; no mutant was run")
            return 1
        outcomes = {"killed": 0, "equivalent": 0, "survived": 0}
        for i, site in enumerate(chosen, 1):
            path = copy / "src" / "ilwbo" / site.module
            source = path.read_text()
            path.write_text(mutated(source, site))
            started = time.perf_counter()
            try:
                result = run_suite(copy, TIMEOUT_S)
            finally:
                path.write_text(source)
            if result != "passed":
                outcome, note = "killed", result
            elif site.key() in EQUIVALENT:
                outcome, note = "equivalent", EQUIVALENT[site.key()]
            else:
                outcome, note = "survived", "NOT ON THE EQUIVALENT LIST"
            outcomes[outcome] += 1
            print(f"[{i:3d}/{len(chosen)}] {outcome:10s} {time.perf_counter() - started:6.1f} s"
                  f"  {site}\n{'':18s}{note}", flush=True)

    judged = len(chosen) - outcomes["equivalent"]
    print(f"killed {outcomes['killed']} of {judged} non-equivalent mutants "
          f"({outcomes['killed'] / max(judged, 1):.1%}); {outcomes['equivalent']} equivalent, "
          f"{outcomes['survived']} unexplained survivors")
    return 1 if outcomes["survived"] or stale else 0


if __name__ == "__main__":
    sys.exit(main())

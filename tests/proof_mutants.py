"""Mutants of the exact and certified code, each with the test that must
kill it.

Every entry of MUTANTS names a file of the repository, a text that occurs
exactly once in it, the text that replaces it and the pytest node id of a
test that fails on the mutated copy. Run from anywhere:

    python tests/proof_mutants.py          # every mutant
    python tests/proof_mutants.py 0 3      # the mutants at these indices

The script copies src/, tests/ and pyproject.toml into a temporary
directory (under $TMPDIR), checks that the named tests pass there
unmutated, then applies one mutant at a time and runs its test. A mutant
whose test still passes survives: the script names each survivor and exits
1. pytest does not collect this file, and tests/test_ci.py checks that each
replaced text occurs exactly once in its file and that each test exists,
so an edit of the code cannot leave an entry that mutates nothing.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    test: str  # pytest node id that must fail on the mutant
    what: str


MUTANTS = (
    Mutant("src/arithreg/nf.py",
           "            sign = -sign",
           "            sign = sign",
           "tests/test_nf.py::TestAgainstFractionOracle::test_norm_and_inverse_by_degree",
           "_resultant without the sign flip at two odd degrees"),
    Mutant("src/arithreg/nf.py",
           "        h = top ** delta // h ** (delta - 1)",
           "        h = top",
           "tests/test_nf.py::TestResultant::test_degree_drops_by_more_than_one",
           "_resultant's scale h updated as if every degree dropped by 1"),
    Mutant("src/arithreg/relations.py",
           "((n - 1) * radius + 8 * (n + 1) * u)",
           "(8 * (n + 1) * u)",
           "tests/test_relations.py::TestCompleteness::test_log_modulus_error_at_its_root_radius",
           "_log_modulus_error without the (n - 1) R root-radius term"),
    Mutant("src/arithreg/relations.py",
           "    bound = s * sum(math.prod(norms[:j] + norms[j + 1:]) for j in range(r))",
           "    bound = s * sum(math.prod(norms[:j] + norms[j + 1:]) for j in range(r)) / 2",
           "tests/test_relations.py::TestCompleteness::"
           "test_certainly_nonsingular_refuses_near_singular",
           "_certainly_nonsingular with its bound B halved"),
    Mutant("src/arithreg/relations.py",
           "    s = (math.isqrt(r - 1) + 1) * _exact(eta)",
           "    s = _exact(eta)",
           "tests/test_relations.py::TestCompleteness::test_certainly_nonsingular_at_its_bound",
           "_certainly_nonsingular with s = eta for ceil(sqrt(r)) eta"),
    Mutant("src/arithreg/nf.py",
           "        if min_sep < tol_resid * 1000:",
           "        if False:",
           "tests/test_nf.py::TestEmbeddings::test_close_real_roots_refused_by_separation",
           "embeddings without its root-separation test"),
)


def _copy(dest: Path):
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "pyproject.toml", dest)


def _passes(workdir: Path, tests) -> bool:
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"))
    done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main(argv) -> int:
    chosen = [MUTANTS[int(i)] for i in argv] if argv else list(MUTANTS)
    with tempfile.TemporaryDirectory(prefix="proof-mutants-") as tmp:
        workdir = Path(tmp)
        _copy(workdir)
        if not _passes(workdir, sorted({m.test for m in chosen})):
            print("the named tests fail on the unmutated code")
            return 2
        survivors = []
        for m in chosen:
            target = workdir / m.path
            text = target.read_text()
            if text.count(m.old) != 1:
                print(f"{m.path}: the replaced text does not occur exactly once ({m.what})")
                return 2
            target.write_text(text.replace(m.old, m.new))
            try:
                killed = not _passes(workdir, [m.test])
            finally:
                target.write_text(text)
            print(f"{'killed ' if killed else 'SURVIVED'}  {m.what}  [{m.test}]")
            if not killed:
                survivors.append(m)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

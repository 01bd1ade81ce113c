"""Every command's output on a fixed matrix of inputs, pinned by one digest
per input in ``golden_outputs.json``.

The inputs are the six fixtures, the benchmark's three pinned pools, 300
random weak and 100 random deterministic systems, the three product
families at n = 3…8, and 80 small random systems.  Each input runs
``verify-weak`` and ``verify-strong --witness --stats`` at k = 0, 1, 1000
and inf; the fixtures and the small systems also run ``oracle weak`` and
``oracle strong`` at those ks.  An input's digest is a truncated SHA-256
over each of its runs' exit code, stdout and stderr, so a rejected input,
exit 2, is an output too.  The test names every input whose digest
differs.

A change that alters some output on purpose rewrites the file, and names
the inputs that changed::

    python tests/test_golden_outputs.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from desopacity import cli, serialize_des  # noqa: E402

from conftest import (  # noqa: E402
    det_shadowed, late_reveal, pinned_pool, random_det_instance, random_weak_instance, shadowed_nth_letter,
)

DIGESTS = Path(__file__).with_name("golden_outputs.json")
FIXTURES = ROOT / "src" / "desopacity" / "fixtures"
POOLS = ("weak_subset_blowup", "strong_reduction", "weak_random_mixed")
FAMILIES = {"shadowed_nth_letter": shadowed_nth_letter, "det_shadowed": det_shadowed, "late_reveal": late_reveal}
KS = ("0", "1", "1000", "inf")
# each command reads input.des in the working directory
VERIFY = [[command, "--input", "input.des", "--k", k, "--witness", "--stats"]
          for command in ("verify-weak", "verify-strong") for k in KS]
ORACLE = [
    ["oracle", kind, "--input", "input.des", "--k", k, "--mu-max", mu_max, "--nu-max", nu_max]
    for kind, mu_max, nu_max in (("weak", "8", "4"), ("strong", "12", "0"))
    for k in KS
]


def inputs():
    """(name, the text of its ``.des`` file, the commands it runs) per input."""
    for path in sorted(FIXTURES.glob("*.des")):
        yield f"fixture/{path.stem}", path.read_text(encoding="utf-8"), VERIFY + ORACLE
    systems = [(f"pool/{pool}/{i}", des) for pool in POOLS for i, des in enumerate(pinned_pool(pool))]
    systems += [(f"random_weak/{s}", random_weak_instance(s, n=5 + s % 16)) for s in range(300)]
    systems += [(f"random_det/{s}", random_det_instance(s, n=5 + s % 16)) for s in range(100)]
    systems += [(f"{family}/{n}", build(n)) for family, build in FAMILIES.items() for n in range(3, 9)]
    for name, des in systems:
        yield name, serialize_des(des), VERIFY
    for s in range(40):
        yield f"small_weak/{s}", serialize_des(random_weak_instance(s, n=3 + s % 4)), VERIFY + ORACLE
        yield f"small_det/{s}", serialize_des(random_det_instance(s, n=3 + s % 4)), VERIFY + ORACLE


def digest(commands) -> str:
    """The digest of ``cli.run`` on each command."""
    h = hashlib.sha256()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.run(argv, out=out)
        h.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode("utf-8"))
    return h.hexdigest()[:16]


def digests() -> dict:
    """Input name -> digest, for every input, in ``inputs()`` order."""
    result = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the path in an error line is then the same on every run
        try:
            for name, text, commands in inputs():
                Path("input.des").write_text(text, encoding="utf-8")
                result[name] = digest(commands)
        finally:
            os.chdir(cwd)
    return result


def test_every_output_matches_its_pinned_digest():
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    computed = digests()
    changed = [name for name in {**computed, **pinned} if pinned.get(name) != computed.get(name)]
    assert not changed, f"{len(changed)} inputs changed output (rewrite: python tests/test_golden_outputs.py): {changed}"


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    new = digests()
    DIGESTS.write_text(json.dumps(new, indent=0) + "\n", encoding="utf-8")
    changed = [name for name in {**new, **old} if old.get(name) != new.get(name)]
    print(f"{len(new)} inputs, {len(changed)} changed: {' '.join(changed)}")

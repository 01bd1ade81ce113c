"""Correctness check of one CLI response, run outside the timed region.

A response passes when its exit code matches its first line, its verdict
equals the pinned one, and a NOT_OPAQUE witness passes
``oracle.validate_weak_witness``.  Weak witnesses are checked against the
input file; strong witnesses against the transformed system G' that
``reduce_to_weak`` returns, since the CLI reports them in G' terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from desopacity import INFINITE, Witness, parse_des, reduce_to_weak, validate_weak_witness

EXIT_CODES = {"OPAQUE": 0, "NOT_OPAQUE": 1}
WITNESS_FIELDS = ("mu", "secret", "nu")


@dataclass(frozen=True)
class Outcome:
    failure: Optional[str]  # None when the response is correct
    stats: dict  # integer fields of the --stats block
    validated: bool  # a witness was checked and passed
    target_states: int  # state count of the system the witness refers to


class Checker:
    def __init__(self):
        self._targets = {}

    def _target(self, path: str, strong: bool):
        """The system a witness refers to, with a state-name index."""
        key = (path, strong)
        if key not in self._targets:
            des = parse_des(Path(path).read_text())
            if strong:
                des = reduce_to_weak(des)[1].des_prime
            names = {des.state_name(q): q for q in range(des.state_count)}
            self._targets[key] = (des, names)
        return self._targets[key]

    def check(self, request, code, text: str, error: Optional[BaseException] = None) -> Outcome:
        des, names = self._target(request.path, request.strong)

        def fail(reason, stats=None):
            return Outcome(reason, stats or {}, False, des.state_count)

        if error is not None:
            return fail(f"raised {type(error).__name__}: {error}")
        lines = text.splitlines()
        verdict = lines[0] if lines else ""
        if EXIT_CODES.get(verdict) != code:
            return fail(f"exit code {code} with first line {verdict!r}")
        fields = dict(line.split("=", 1) for line in lines[1:] if "=" in line)
        stats = {key: int(value) for key, value in fields.items() if key not in WITNESS_FIELDS and value.isdigit()}
        if verdict != request.expected:
            return fail(f"verdict {verdict}, pinned {request.expected}", stats)
        if verdict == "OPAQUE":
            return Outcome(None, stats, False, des.state_count)
        if not set(WITNESS_FIELDS) <= fields.keys() or fields["secret"] not in names:
            return fail("NOT_OPAQUE without a well-formed witness", stats)
        # Observable event names are single letters, so a string splits into events.
        witness = Witness(tuple(fields["mu"]), names[fields["secret"]], tuple(fields["nu"]), frozenset())
        k = INFINITE if request.k == "inf" else int(request.k)
        if not validate_weak_witness(des, k, witness):
            return fail(f"witness {fields['mu']!r}/{fields['secret']}/{fields['nu']!r} does not validate", stats)
        return Outcome(None, stats, True, des.state_count)

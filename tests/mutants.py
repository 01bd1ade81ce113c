"""Named mutants of the verifier, and a runner that checks the tests kill each.

A mutant is an exact replacement of one text, which occurs exactly once,
in one file under ``src/``.  The runner times each distinct test selection
once on an unmutated copy of ``src/``, then runs each mutant's selection
on a mutated copy, in a child forked from the runner.  The mutant is
killed when a test fails, when the package does not import, or when the
run outlasts twice that time and the warm-up's, as an endless loop does.
The runner exits 1 when a mutant survives, when its old text no longer
matches, or when a selection fails unmutated, so a refactor updates this
list instead of dropping a mutant without notice.

Run from anywhere on a POSIX system, with pytest installed::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones
"""

from __future__ import annotations

import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


WEAK = "src/desopacity/weak.py"
AUTOMATA = "src/desopacity/automata.py"
STRONG = "src/desopacity/strong.py"
DESFILE = "src/desopacity/desfile.py"
CLI = "src/desopacity/cli.py"
DOT = "src/desopacity/dot.py"
ORACLE = "src/desopacity/oracle.py"
ADMIT_TESTS = (
    "tests/test_automata.py::test_admit_applies_only_the_universal_rules",
    "tests/test_automata.py::test_admit_matches_its_contract",
)
NORMALIZE_TESTS = (
    "tests/test_strong.py::test_normalize_matches_reference_on_fixtures_and_pool",
    "tests/test_strong.py::test_normalize_matches_reference_on_random_systems",
)
TRANSFORM_TESTS = (
    "tests/test_strong.py::test_strong_to_weak_fig8",
    "tests/test_strong.py::test_verify_strong_matches_two_way_check_on_fixtures_and_pool",
)
PRIME_TESTS = ("tests/test_strong.py::test_strong_to_weak_primes_past_every_name_in_use",)
FRESH_EVENT_TESTS = ("tests/test_strong.py::test_strong_to_weak_fresh_event_avoids_collision",)
PARSE_TESTS = ("tests/test_cli.py::test_parse_names_the_first_malformed_transition",)
ROUNDTRIP_TESTS = ("tests/test_cli.py::test_roundtrip_stable",)
DOT_TESTS = ("tests/test_cli.py::test_cli_observer_dot",)
PLAIN_TESTS = (
    "tests/test_cli.py::test_run_reads_arguments_as_the_top_level_parser_does",
    "tests/test_cli.py::test_read_plain_matches_the_command_parser",
)
DECIDED_TESTS = ("tests/test_weak.py::test_decided_verdict_matches_the_full_search",)
CERTIFICATE_TESTS = ("tests/test_weak.py::test_certificate_starts_from_universal_nonsecret_states_and_closes",)
GOLDEN_TESTS = ("tests/test_golden_outputs.py::test_every_output_matches_its_pinned_digest",)
NONDETERMINISM_RAISE = (
    "    if not is_deterministic(des):\n"
    '        raise ValueError("strong opacity is defined for deterministic systems only")\n'
)
OBSERVER_TESTS = ("tests/test_automata.py::test_observer_matches_reference_on_random_weak_systems",)
CONDENSATION_TESTS = (
    "tests/test_automata.py::test_project_condenses_unobservable_components",
    "tests/test_automata.py::test_project_matches_oracle_rows_on_random_systems",
)

MUTANTS = (
    # admission
    Mutant("rule-b-subset-reversed", WEAK, "            if not y & ~z:\n", "            if not z & ~y:\n", ADMIT_TESTS),
    Mutant(
        "cut-after-highest-universal",
        WEAK,
        "            states &= (u & -u) * 2 - 1\n",
        "            states &= (1 << u.bit_length()) - 1\n",
        ADMIT_TESTS,
    ),
    Mutant(
        "z-recorded-unconditionally",
        WEAK,
        "        if u:\n            self.dominating.append(z)\n",
        "        self.dominating.append(z)\n        if u:\n",
        ADMIT_TESTS,
    ),
    Mutant(
        "seed-overwritten-by-later-estimate",
        WEAK,
        "            seeds.setdefault((q, z), x)\n",
        "            seeds[(q, z)] = x\n",
        ("tests/test_weak.py::test_compute_seeds_keeps_the_first_root_of_a_pair",),
    ),
    # the product search
    Mutant(
        "root-stop-dropped",
        WEAK,
        "            if not v[1]:\n                return marked, 0\n",
        "",
        ("tests/test_weak.py::test_bounded_bfs_matches_reference_search",),
    ),
    Mutant(
        "stop-tested-at-level-end",
        WEAK,
        "                            if not z2:\n"
        "                                return marked, level + 1\n"
        "                            following.append(v)\n"
        "                row >>= n\n"
        "                y >>= n\n"
        "                j += 1\n",
        "                            following.append(v)\n"
        "                row >>= n\n"
        "                y >>= n\n"
        "                j += 1\n"
        "        if any(not v[1] for v in following):\n"
        "            return marked, level + 1\n",
        ("tests/test_weak.py::test_bounded_bfs_matches_reference_search",),
    ),
    Mutant(
        "link-recorded-as-root",
        WEAK,
        "                            marked[v] = (u, j)\n",
        "                            marked[v] = None\n",
        ("tests/test_weak.py::test_bounded_bfs_parent_links_replay_through_oracle_rows",),
    ),
    # the observer
    Mutant(
        "observer-lifo",
        AUTOMATA,
        "    for x in queue:\n",
        "    while queue:\n        x = queue.pop()\n",
        OBSERVER_TESTS,
    ),
    Mutant(
        "observation-takes-last-match",
        AUTOMATA,
        "        j = 0\n        while (y >> j * n) & full != x:\n            j += 1\n",
        "        j = len(pg.event_names) - 1\n        while (y >> j * n) & full != x:\n            j -= 1\n",
        ("tests/test_weak.py::test_shortest_observations_event_order_tiebreak",),
    ),
    Mutant(
        "observer-initial-stop-skipped",
        AUTOMATA,
        "    if not x & nonsecret and x & secret:\n        return parents\n    queue",
        "    queue",
        OBSERVER_TESTS,
    ),
    # the universal states
    Mutant(
        "universal-any-successor",
        WEAK,
        "                if not (row >> offset) & kept:\n",
        "                if not (row >> offset) & ((1 << n) - 1):\n",
        ("tests/test_automata.py::test_universal_matches_oracle_references",),
    ),
    Mutant(
        "universal-within-ignored",
        WEAK,
        "    kept = (1 << n) - 1 if within is None else within\n",
        "    kept = (1 << n) - 1\n",
        (*CERTIFICATE_TESTS, "tests/test_weak.py::test_verify_weak_witnesses_validate_past_oracle_sizes"),
    ),
    # the certificate: an initial estimate that meets W answers OPAQUE
    Mutant("certificate-unclosed", WEAK, "universal(pg, u & nonsecret)", "u & nonsecret", (*CERTIFICATE_TESTS, *DECIDED_TESTS)),
    # its removal changes no output, only the time, so only the count of
    # the requests that reach compute_seeds tells
    Mutant(
        "certificate-removed",
        WEAK,
        "    if pg.initial & universal(pg, u & nonsecret):\n",
        "    if False:\n",
        ("tests/test_cli.py::test_benchmark_requests_that_seed",),
    ),
    # k = 0 answered at the observer's end: current-state opacity
    Mutant("zero-steps-exit-widened", WEAK, "    if k == 0:\n", "    if k <= 1:\n", (*CERTIFICATE_TESTS, *DECIDED_TESTS)),
    Mutant(
        "zero-steps-exit-above-reveal",
        WEAK,
        "    if not x & nonsecret and x & secret:\n",
        "    if k == 0:\n"
        "        return Verdict(True, None, VerifyStats(len(obs), 0, 0, 0))\n"
        "    if not x & nonsecret and x & secret:\n",
        ("tests/test_weak.py::test_zero_steps_is_current_state_opacity",),
    ),
    # the forks that stay on the verify request path
    Mutant(
        "observer-inline-high-dropped",
        AUTOMATA,
        "        y = low[x & BYTE] | high[x >> BLOCK] if inline else step(x)\n",
        "        y = low[x & BYTE] if inline else step(x)\n",
        OBSERVER_TESTS,
    ),
    Mutant(
        "observer-inline-past-two-tables",
        AUTOMATA,
        "    inline = len(pg.tables) == 2\n",
        "    inline = len(pg.tables) >= 2\n",
        OBSERVER_TESTS,
    ),
    # the kernel's width above 16 states; moving its bound changes only the time
    Mutant(
        "loop-masks-wide-shifts-narrow",
        AUTOMATA,
        "            out |= table[mask & part]\n",
        "            out |= table[mask & BYTE]\n",
        ("tests/test_automata.py::test_step_kernel_matches_rows",),
    ),
    Mutant(
        "loop-shifts-wide-masks-narrow",
        AUTOMATA,
        "            mask >>= width\n",
        "            mask >>= BLOCK\n",
        ("tests/test_automata.py::test_step_kernel_matches_rows",),
    ),
    Mutant(
        "decided-witness-highest-secret",
        WEAK,
        "states_of(x & secret)[0]",
        "states_of(x & secret)[-1]",
        DECIDED_TESTS,
    ),
    Mutant("decided-stats-no-root", WEAK, "VerifyStats(len(obs), 0, 1, 0)", "VerifyStats(len(obs), 0, 0, 0)", DECIDED_TESTS),
    # the plain command-line reader
    Mutant(
        "plain-dash-value-accepted",
        CLI,
        '        if value is None or value.startswith("-"):\n',
        "        if value is None:\n",
        PLAIN_TESTS,
    ),
    Mutant("plain-type-skipped", CLI, "                value = action.type(value)\n", "                pass\n", PLAIN_TESTS),
    Mutant(
        "plain-required-skipped",
        CLI,
        "    if not seen.issuperset(required):\n        return None\n",
        "",
        PLAIN_TESTS,
    ),
    Mutant(
        "plain-set-defaults-skipped",
        CLI,
        "start = {**defaults, **{action.dest: action.default for action in actions}}",
        "start = {action.dest: action.default for action in actions}",
        PLAIN_TESTS,
    ),
    Mutant(
        "plain-flags-excluded",
        CLI,
        "action.nargs in (None, 0)",
        "action.nargs is None",
        ("tests/test_cli.py::test_benchmark_requests_are_all_plain",),
    ),
    # the CLI's commands
    Mutant(
        "bench-reports-slowest-repeat",
        CLI,
        "            if best is None or elapsed < best:\n",
        "            if best is None or elapsed >= best:\n",
        ("tests/test_cli.py::test_cli_bench_reports_the_fastest_repeat",),
    ),
    Mutant(
        "rewrite-commands-swapped",
        CLI,
        '"rewrite": normalize}',
        '"rewrite": strong_to_weak}',
        ("tests/test_cli.py::test_strong_library_matches_cli_without_nonsecret",),
    ),
    # the projection and the DOT export
    Mutant(
        "unobservable-successors-of-observable-events",
        AUTOMATA,
        "        if e not in offsets:\n",
        "        if e in offsets:\n",
        ("tests/test_automata.py::test_project_definitional_identity",),
    ),
    Mutant(
        "low-link-of-back-edge-dropped",
        AUTOMATA,
        "                low[p] = min(low[p], index[q])\n",
        "                pass\n",
        CONDENSATION_TESTS,
    ),
    Mutant(
        "low-link-not-passed-to-parent",
        AUTOMATA,
        "            low[path[-1]] = low[p]  # and p, above its parent, is no root\n",
        "            pass\n",
        CONDENSATION_TESTS,
    ),
    Mutant(
        "on-stack-test-keeps-finished-components",
        AUTOMATA,
        "                on ^= 1 << q\n",
        "",
        CONDENSATION_TESTS,
    ),
    Mutant(
        "condensation-skips-other-components",
        AUTOMATA,
        "        row = union_rows(out, reach)\n",
        "        row = union_rows(rows, reach)\n",
        CONDENSATION_TESTS,
    ),
    Mutant(
        "dot-edges-not-shifted",
        DOT,
        "            y >>= n\n",
        "",
        DOT_TESTS,
    ),
    Mutant("dot-quote-backslash-not-escaped", DOT, r'.replace("\\", "\\\\")', "", DOT_TESTS),
    Mutant(
        "dot-quote-replaces-swapped",
        DOT,
        r"""s.replace("\\", "\\\\").replace('"', '\\"')""",
        r"""s.replace('"', '\\"').replace("\\", "\\\\")""",
        DOT_TESTS,
    ),
    # normalization
    Mutant(
        "normalize-not-redirected",
        STRONG,
        "(p >= n or p in des.secret and q in des.nonsecret)",
        "p >= n",
        NORMALIZE_TESTS,
    ),
    Mutant("normalize-redirect-ignores-target", STRONG, " and q in des.nonsecret)", ")", NORMALIZE_TESTS),
    Mutant(
        "normalize-copy-unobservable-returns",
        STRONG,
        "(p >= n or p in des.secret and",
        "(p in des.secret and",
        NORMALIZE_TESTS,
    ),
    Mutant(
        "normalize-copy-observable-dropped",
        STRONG,
        "            moves.append((p, e, q))\n",
        "            if p >= n and e not in unobs:\n"
        "                continue\n"
        "            moves.append((p, e, q))\n",
        NORMALIZE_TESTS,
    ),
    Mutant(
        "normalize-copy-observable-second-target",
        STRONG,
        "            moves.append((p, e, q))\n",
        "            moves.append((p, e, q))\n"
        "            if p >= n and e not in unobs:\n"
        "                moves.append((p, e, q + n))\n"
        "                if q + n not in seen:\n"
        "                    seen.add(q + n)\n"
        "                    queue.append(q + n)\n",
        NORMALIZE_TESTS,
    ),
    # the strong input rules
    Mutant(
        "strong-input-accepts-nondeterministic",
        STRONG,
        NONDETERMINISM_RAISE,
        "",
        (
            "tests/test_strong.py::test_strong_mode_rejects_nondeterminism_without_neutral_states",
            "tests/test_cli.py::test_cli_error_paths",
        ),
    ),
    Mutant(
        "oracle-strong-accepts-nondeterministic",
        ORACLE,
        NONDETERMINISM_RAISE,
        "",
        ("tests/test_strong.py::test_strong_mode_rejects_nondeterminism_without_neutral_states",),
    ),
    Mutant(
        "prime-names-forget-used",
        STRONG,
        "        used.add(cand)\n",
        "",
        PRIME_TESTS,
    ),
    # the name loops: each of these never ends, so its run is killed by the timeout
    Mutant("prime-suffix-not-grown", STRONG, "            cand += \"'\"\n", "            pass\n", PRIME_TESTS),
    Mutant("prime-loop-test-flipped", STRONG, "        while cand in used:\n", "        while cand not in used:\n", PRIME_TESTS),
    Mutant("fresh-event-counter-not-advanced", STRONG, "        i += 1\n", "        pass\n", FRESH_EVENT_TESTS),
    Mutant("fresh-event-counter-zeroed", STRONG, "        i += 1\n", "        i += 0\n", FRESH_EVENT_TESTS),
    Mutant(
        "fresh-event-loop-test-flipped",
        STRONG,
        '    while f"u{i}" in taken:\n',
        '    while f"u{i}" not in taken:\n',
        FRESH_EVENT_TESTS,
    ),
    # the strong-to-weak transformation
    Mutant(
        "transform-copies-no-moves",
        STRONG,
        "            delta.add((copy_map[p], e, copy_map[q]))\n",
        "            pass\n",
        TRANSFORM_TESTS,
    ),
    Mutant(
        "transform-copies-observable-moves-only",
        STRONG,
        "        if p in copy_map and q in copy_map:\n",
        "        if p in copy_map and q in copy_map and des.events[e].observable:\n",
        TRANSFORM_TESTS,
    ),
    Mutant(
        "reduction-skips-normalize",
        STRONG,
        "ReductionResult(strong_to_weak(des_n))",
        "ReductionResult(strong_to_weak(des))",
        ("tests/test_strong.py::test_reduce_to_weak_always_normalizes",),
    ),
    # the index rules
    Mutant(
        "transition-source-one-past-the-states",
        AUTOMATA,
        "if not (0 <= p < n and 0 <= q < n):",
        "if not (0 <= p <= n and 0 <= q < n):",
        ("tests/test_automata.py::test_des_validation",),
    ),
    Mutant(
        "transition-event-one-past-the-events",
        AUTOMATA,
        "if not (0 <= e < m):",
        "if not (0 <= e <= m):",
        ("tests/test_automata.py::test_des_validation",),
    ),
    # the name rules
    Mutant(
        "line-break-blames-first-clean-name",
        AUTOMATA,
        "name.splitlines() not in ([], [name])",
        "name.splitlines() in ([], [name])",
        ("tests/test_automata.py::test_des_rejects_names_with_a_line_break",),
    ),
    # every command's output, pinned by digest
    Mutant("golden-witness-nu-prints-mu", CLI, 'f"nu={_word(nu, observable)}"', 'f"nu={_word(mu, observable)}"', GOLDEN_TESTS),
    Mutant("golden-stats-count-roots", WEAK, "len(marked), depth)", "len(roots), depth)", GOLDEN_TESTS),
    # parsing
    Mutant(
        "transition-name-type-error-uncaught",
        DESFILE,
        "        except (KeyError, TypeError):  # TypeError: a list or object as a name\n",
        "        except KeyError:\n",
        PARSE_TESTS,
    ),
    Mutant(
        "transition-target-blamed-before-source",
        DESFILE,
        '("state", src, state_index), ("state", tgt, state_index)',
        '("state", tgt, state_index), ("state", src, state_index)',
        PARSE_TESTS,
    ),
    Mutant(
        "state-names-not-checked",
        DESFILE,
        " or not all(isinstance(s, str) for s in states)",
        "",
        ("tests/test_cli.py::test_parse_rejects_malformed_fields",),
    ),
    # writing
    Mutant("serialize-no-final-line-break", DESFILE, 'json.dumps(doc, indent=2) + "\\n"', "json.dumps(doc, indent=2)", ROUNDTRIP_TESTS),
    Mutant("serialize-initial-unsorted", DESFILE, "for q in sorted(des.initial)]", "for q in des.initial]", ROUNDTRIP_TESTS),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Apply ``mutant`` to the tree at ``root``; raise ValueError unless its
    old text occurs exactly once."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: its old text occurs {count} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run_tests(mutant: Mutant | None, tests: tuple, timeout: float | None = None) -> int | None:
    """pytest's exit code for ``tests`` against a copy of ``src/`` with
    ``mutant`` applied, or unmutated for None; 1 when the package does not
    import, 2 when it is not the copy, None when the run outlasts ``timeout``."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            apply(mutant, Path(tmp))
        sys.stdout.flush()  # so the child holds no copy of buffered output
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.setitimer(signal.ITIMER_REAL, timeout or 0)  # 0 arms none; SIGALRM's default action ends the child
                for name in [name for name in sys.modules if name.partition(".")[0] == "desopacity"]:
                    del sys.modules[name]
                sys.path.insert(0, str(src))
                os.chdir(ROOT)
                from desopacity import cli  # imports every module of the package
                code = 2  # unless the package is the copy, not an installed one
                if Path(cli.__file__).is_relative_to(src):
                    # no report, and the tests' prints captured: pyproject.toml's addopts turn capture off
                    code = pytest.main(["-x", "-p", "no:cacheprovider", "-p", "no:terminal", "--capture=fd", *tests])
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        return None if os.WIFSIGNALED(status) else os.WEXITSTATUS(status)


def main(names: list) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    mutants = [known[name] for name in names] or list(MUTANTS)
    # load pytest's plugins and Hypothesis once, through pytest's import hook, which imports them without a warning
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "test_warm_up.py").write_text("import hypothesis\n", encoding="utf-8")
        pytest.main(["--co", "-p", "no:cacheprovider", "-p", "no:terminal", tmp])
    warm_up = time.perf_counter() - start
    timeouts = {}  # per distinct selection; the warm-up is what a fresh start paid, and the factor covers the host's spread
    for tests in dict.fromkeys(m.tests for m in mutants):
        start = time.perf_counter()
        code = run_tests(None, tests)
        if code != 0:
            print(f"{' '.join(tests)} fails on the unmutated source (pytest exit {code})")
            return 1
        timeouts[tests] = 2 * (time.perf_counter() - start + warm_up)
    failed = 0
    for mutant in mutants:
        try:
            code = run_tests(mutant, mutant.tests, timeouts[mutant.tests])
        except ValueError as exc:
            print(f"{'STALE':<16} {exc}")
            failed += 1
            continue
        # the run exits 1 when a test failed or the package did not import;
        # another code is an error of the run
        outcome = {0: "SURVIVED", 1: "killed", None: "killed (timeout)"}.get(code, f"ERROR (exit {code})")
        failed += code not in (1, None)
        print(f"{outcome:<16} {mutant.name}")
    print(f"{len(mutants) - failed} of {len(mutants)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

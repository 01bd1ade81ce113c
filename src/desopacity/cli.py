"""Command-line interface.

Verification commands print `OPAQUE` or `NOT_OPAQUE` on the first line and
exit with 0 (opaque), 1 (not opaque), or 2 (usage or input error).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

from .automata import Des
from .desfile import parse_des, serialize_des
from .dot import des_to_dot, observer_to_dot
from .oracle import (
    GeneratorParams,
    OracleBounds,
    random_des,
    strong_violation_search,
    weak_violation_search,
)
from .strong import normalize, reduce_to_weak, strong_to_weak
from .weak import INFINITE, verify_weak


def _parse_k(text: str):
    """``inf`` or ASCII digits only: ``int()`` alone also takes ``1_0``,
    ``+1``, surrounding spaces and non-ASCII digits."""
    if text == "inf":
        return INFINITE
    if text.isascii() and text.isdigit():
        return int(text)
    raise ValueError(f"invalid k: {text!r} (expected a nonnegative integer or 'inf')")


def _load(path: str) -> Des:
    return parse_des(Path(path).read_text(encoding="utf-8"))


def _word(names, alphabet) -> str:
    """Event names as one line's value: joined bare when every name in
    ``alphabet`` is one character, otherwise a JSON list, which parses back."""
    if all(len(name) == 1 for name in alphabet):
        return "".join(names)
    return json.dumps(list(names))


def _stats_fields(stats) -> list:
    """``name=value`` for each field of a ``VerifyStats``, in field order."""
    return [f"{f.name}={getattr(stats, f.name)}" for f in dataclasses.fields(stats)]


def _emit(opaque: bool, witness, des_for_names, out, extra=()) -> int:
    """Print the verdict line, then, if given, a (mu, secret state, nu)
    witness, then the lines ``extra``.  The output is rendered in full and
    written at once, so an error while rendering it writes nothing."""
    lines = ["OPAQUE" if opaque else "NOT_OPAQUE"]
    if witness is not None:
        mu, secret_state, nu = witness
        observable = [e.name for e in des_for_names.events.entries if e.observable]
        lines += [
            f"mu={_word(mu, observable)}",
            f"secret={des_for_names.state_name(secret_state)}",
            f"nu={_word(nu, observable)}",
        ]
    lines += extra
    out.write("\n".join(lines) + "\n")
    return 0 if opaque else 1


def _emit_verdict(verdict, des_for_names, args, out) -> int:
    w = verdict.witness if args.witness else None
    stats = _stats_fields(verdict.stats) if args.stats else ()
    return _emit(verdict.opaque, w and (w.mu, w.secret_state, w.nu), des_for_names, out, stats)


def _cmd_verify_weak(args, out) -> int:
    des = _load(args.input)
    verdict = verify_weak(des, _parse_k(args.k))
    if args.dot:
        directory = Path(args.dot)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "des.dot").write_text(des_to_dot(des), encoding="utf-8")
        (directory / "observer.dot").write_text(observer_to_dot(des), encoding="utf-8")
    return _emit_verdict(verdict, des, args, out)


def _cmd_verify_strong(args, out) -> int:
    _norm, reduction = reduce_to_weak(_load(args.input))
    verdict = verify_weak(reduction.des_prime, _parse_k(args.k))
    return _emit_verdict(verdict, reduction.des_prime, args, out)


def _cmd_rewrite(args, out) -> int:
    Path(args.output).write_text(serialize_des(args.rewrite(_load(args.input))), encoding="utf-8")
    return 0


def _cmd_observer(args, out) -> int:
    Path(args.dot).write_text(observer_to_dot(_load(args.input)), encoding="utf-8")
    return 0


def _cmd_oracle(args, out) -> int:
    des = _load(args.input)
    k = _parse_k(args.k)
    bounds = OracleBounds(args.mu_max, args.nu_max)
    if args.kind == "weak":
        found = weak_violation_search(des, k, bounds)
        return _emit(found is None, found, des, out)
    s = strong_violation_search(des, k, bounds)
    return _emit(s is None, None, des, out, () if s is None else [f"s={_word(s, des.events.names)}"])


def _cmd_random(args, out) -> int:
    params = GeneratorParams(
        state_count=args.states,
        observable_event_count=args.obs_events,
        unobservable_event_count=args.unobs_events,
        transition_density=args.density,
        secret_fraction=args.secret_frac,
        deterministic=args.deterministic,
        rng_seed=args.seed,
    )
    Path(args.output).write_text(serialize_des(random_des(params)), encoding="utf-8")
    return 0


def _cmd_bench(args, out) -> int:
    des = _load(args.input)
    ks = [_parse_k(part) for part in args.k_list.split(",")]
    if args.repeat < 1:
        raise ValueError("--repeat must be at least 1")
    for k in ks:
        best = None
        for _ in range(args.repeat):
            start = time.perf_counter()
            verdict = verify_weak(des, k)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        label = "inf" if k is INFINITE else str(k)
        print(f"k={label} time={best:.6f}s", *_stats_fields(verdict.stats), file=out)
    return 0


# Each command: the defaults its set_defaults sets, then each of its
# arguments as (name, add_argument keywords), in the order its usage lists
# them.  Every argument stores one value or, with store_true, a constant.
COMMANDS = {
    "verify-weak": (
        {"func": _cmd_verify_weak},
        ("--input", {"required": True}),
        ("--k", {"required": True, "help": "nonnegative integer or 'inf'"}),
        ("--witness", {"action": "store_true"}),
        ("--stats", {"action": "store_true"}),
        ("--dot", {"help": "directory for DOT exports"}),
    ),
    "verify-strong": (
        {"func": _cmd_verify_strong},
        ("--input", {"required": True}),
        ("--k", {"required": True, "help": "nonnegative integer or 'inf'"}),
        ("--witness", {"action": "store_true"}),
        ("--stats", {"action": "store_true"}),
    ),
    "normalize": (
        {"func": _cmd_rewrite, "rewrite": normalize},
        ("--input", {"required": True}),
        ("--output", {"required": True}),
    ),
    "transform": (
        {"func": _cmd_rewrite, "rewrite": strong_to_weak},
        ("--input", {"required": True}),
        ("--output", {"required": True}),
    ),
    "observer": (
        {"func": _cmd_observer},
        ("--input", {"required": True}),
        ("--dot", {"required": True}),
    ),
    "oracle": (
        {"func": _cmd_oracle},
        ("kind", {"choices": ["weak", "strong"]}),
        ("--input", {"required": True}),
        ("--k", {"required": True}),
        ("--mu-max", {"type": int, "required": True}),
        ("--nu-max", {"type": int, "required": True, "help": "bound on the continuation's length; 'oracle strong' ignores it"}),
    ),
    "random": (
        {"func": _cmd_random},
        ("--states", {"type": int, "required": True}),
        ("--obs-events", {"type": int, "required": True}),
        ("--unobs-events", {"type": int, "required": True}),
        ("--density", {"type": float, "required": True}),
        ("--secret-frac", {"type": float, "required": True}),
        ("--seed", {"type": int, "required": True}),
        ("--output", {"required": True}),
        ("--deterministic", {"action": "store_true"}),
    ),
    "bench": (
        {"func": _cmd_bench},
        ("--input", {"required": True}),
        ("--k-list", {"required": True, "help": "comma-separated ks, e.g. 1,1000,inf"}),
        ("--repeat", {"type": int, "default": 1}),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="desopacity", description="Opacity verification for discrete-event systems.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (defaults, *arguments) in COMMANDS.items():
        command = sub.add_parser(name)
        actions = [command.add_argument(argument, **keywords) for argument, keywords in arguments]
        command.set_defaults(**defaults)
        command.plain = _plain_table(actions, defaults)  # for _read_plain
    parser.commands = sub.choices  # command name -> its parser, for run
    return parser


def _plain_table(actions, defaults) -> tuple:
    """The option table ``_read_plain`` reads a command by, from the actions
    its arguments added and the defaults its ``set_defaults`` set: option
    string -> action, for each action that stores one value or a constant;
    the required actions; and the values argparse starts the namespace
    with.  Help is not among the actions and a positional argument has no
    option string, so neither is in the table, and a command line that
    asks for help or gives a positional argument is not plain."""
    options = {
        option: action
        for action in actions
        if action.choices is None and action.nargs in (None, 0)
        for option in action.option_strings
    }
    start = {**defaults, **{action.dest: action.default for action in actions}}
    return options, [action for action in actions if action.required], start


def _read_plain(command: argparse.ArgumentParser, argv):
    """The namespace ``command.parse_known_args(argv)`` returns, with
    nothing unread, when ``argv`` is plain: every token is one of the
    command's option strings or the value after one that takes a value,
    every value is a token that does not start with ``-`` and converts by
    the option's ``type``, and no required option is missing.  None for
    any other ``argv``."""
    options, required, defaults = command.plain
    values, seen = dict(defaults), set()
    tokens = iter(argv)
    for token in tokens:
        action = options.get(token)
        if action is None:
            return None
        seen.add(action)
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError):
                return None
        values[action.dest] = value
    if not seen.issuperset(required):
        return None
    return argparse.Namespace(**values)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use: building costs far more than parsing."""
    return build_parser()


def run(argv=None, out=None) -> int:
    """Run one command and return its exit code.

    This is the one place errors become exit 2: a usage error, or any
    ``ValueError`` (malformed or undecodable input, a library
    precondition) or ``OSError`` (an unreadable or unwritable path) that a
    command raises, reported as one ``error:`` line on stderr.
    """
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    # A plain command line is read in one pass over the named command's
    # option table.  Any other, help and usage errors included, goes
    # through the top-level parser, so it reads as it always has.
    command = parser.commands.get(argv[0]) if argv else None
    args = None if command is None else _read_plain(command, argv[1:])
    if args is None:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

"""JSON file format for DES descriptions.

A document is a JSON object with fields:

  states:      list of state name strings
  initial:     list of state names
  events:      list of {"name": str, "observable": bool}
  transitions: list of [source, event, target] name triples
  secret:      list of state names
  nonsecret:   list of state names (optional)

Names map to indices in document order, so parse/serialize round-trips
preserve content exactly.
"""

from __future__ import annotations

import json

from .automata import Des, Event, EventTable


class DesFormatError(ValueError):
    """Raised for malformed DES documents, with a specific diagnostic."""


def parse_des(text: str) -> Des:
    try:
        doc = json.loads(text)
    # ValueError: also an integer too long to convert; RecursionError: nesting too deep
    except (ValueError, RecursionError) as exc:
        raise DesFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DesFormatError("document must be a JSON object")

    states = doc.get("states")
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise DesFormatError("'states' must be a list of name strings")
    state_index = {s: i for i, s in enumerate(states)}

    raw_events = doc.get("events")
    if not isinstance(raw_events, list):
        raise DesFormatError("'events' must be a list")
    entries = []
    for item in raw_events:
        if not isinstance(item, dict) or "name" not in item or "observable" not in item:
            raise DesFormatError("each event needs 'name' and 'observable' fields")
        name = item["name"]
        if not isinstance(name, str):
            raise DesFormatError("event names must be strings")
        if not isinstance(item["observable"], bool):
            raise DesFormatError(f"'observable' of event {name!r} must be true or false")
        entries.append(Event(name, item["observable"]))
    event_index = {e.name: i for i, e in enumerate(entries)}

    def resolve_state(name, where):
        if not isinstance(name, str) or name not in state_index:
            raise DesFormatError(f"unknown state name {name!r} in {where}")
        return state_index[name]

    def field_list(key):
        value = doc.get(key, [])
        if not isinstance(value, list):
            raise DesFormatError(f"{key!r} must be a list")
        return value

    initial = frozenset(resolve_state(s, "initial") for s in field_list("initial"))

    transitions = set()
    for t in field_list("transitions"):
        if not (isinstance(t, list) and len(t) == 3):
            raise DesFormatError("each transition must be a [source, event, target] triple")
        src, ev, tgt = t
        try:  # a name is a str key or no key
            transitions.add((state_index[src], event_index[ev], state_index[tgt]))
        except (KeyError, TypeError):  # TypeError: a list or object as a name
            # name the unknown one: the event first, then the source, then the target
            for kind, name, index in (("event", ev, event_index), ("state", src, state_index), ("state", tgt, state_index)):
                if not isinstance(name, str) or name not in index:
                    raise DesFormatError(f"unknown {kind} name {name!r} in transitions") from None

    secret = frozenset(resolve_state(s, "secret") for s in field_list("secret"))
    nonsecret = frozenset(resolve_state(s, "nonsecret") for s in field_list("nonsecret"))

    try:  # the model checks its own rules; a file breaking one is malformed
        return Des(
            state_count=len(states),
            events=EventTable(tuple(entries)),
            transitions=frozenset(transitions),
            initial=initial,
            secret=secret,
            nonsecret=nonsecret,
            state_names=tuple(states),
        )
    except ValueError as exc:
        raise DesFormatError(str(exc)) from exc


def serialize_des(des: Des) -> str:
    names = [des.state_name(q) for q in range(des.state_count)]
    doc = {
        "states": names,
        "initial": [names[q] for q in sorted(des.initial)],
        "events": [{"name": e.name, "observable": e.observable} for e in des.events.entries],
        "transitions": [
            [names[p], des.events[e].name, names[q]]
            for (p, e, q) in sorted(des.transitions)
        ],
        "secret": [names[q] for q in sorted(des.secret)],
        "nonsecret": [names[q] for q in sorted(des.nonsecret)],
    }
    return json.dumps(doc, indent=2) + "\n"

"""Plain-text stanza files.

Shared format for experiment specs and golden-case lists: `%` starts a
comment, `[name]` opens a stanza, and `key = value` lines fill it.  Keys
may repeat; values are kept in file order.  Text before the first stanza
header forms an unnamed preamble stanza, which lets single-stanza files
skip the header entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class SpecError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


def to_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise SpecError("key %r expects an integer, got %r" % (key, raw)) from None


@dataclass
class Stanza:
    section: str
    pairs: list[tuple[str, str]] = field(default_factory=list)

    def many(self, key: str) -> list[str]:
        return [v for k, v in self.pairs if k == key]

    def one(self, key: str, default: str | None = None) -> str:
        values = self.many(key)
        if not values:
            if default is not None:
                return default
            raise SpecError("missing key %r in [%s] stanza" % (key, self.section))
        if len(values) > 1:
            raise SpecError("key %r given %d times in [%s] stanza" % (key, len(values), self.section))
        return values[0]

    def one_int(self, key: str, default: int | None = None) -> int:
        return to_int(key, self.one(key, None if default is None else str(default)))

    def keys(self) -> set[str]:
        return {k for k, _ in self.pairs}


def parse_stanza_file(text: str) -> list[Stanza]:
    stanzas = [Stanza("")]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise SpecError("unterminated stanza header %r" % raw.strip(), lineno)
            stanzas.append(Stanza(line[1:-1].strip()))
            continue
        if "=" not in line:
            raise SpecError("expected key = value, got %r" % raw.strip(), lineno)
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise SpecError("empty key", lineno)
        stanzas[-1].pairs.append((key, value))
    if not stanzas[0].pairs:
        stanzas.pop(0)
    return stanzas


def parse_stanzas(text: str, section: str) -> list[Stanza]:
    """All stanzas with the given section name, in file order."""
    return [s for s in parse_stanza_file(text) if s.section == section]

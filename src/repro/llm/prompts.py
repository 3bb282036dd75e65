"""The structured prompt protocol between components and the LLM.

Every component talks to the language model through *rendered prompt
strings* and parses *text responses* — the same boundary a hosted LLM
would sit behind.  Prompts are section-structured::

    ## ROLE
    conductor
    ## USER_MESSAGE
    What impact will tariffs have on our organization?
    ## STATE
    {...json...}

``render_prompt``/``parse_prompt`` define that format; JSON payloads ride
inside sections.  The offline :class:`~repro.llm.rule_llm.RuleLLM` parses
the sections back out; a hosted model would read the same text, and its
replies would have to meet the shapes :mod:`repro.llm.contract` declares
for its role, which every decoder checks.  A body
line that would read as a section marker (a user message may carry a
``"## "`` heading) is escaped with one more leading backslash on render
and unescaped on parse, so no body can open a section.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional, Tuple

SECTION_MARKER = "## "


class PromptFormatError(ValueError):
    """Raised when a prompt or response does not follow the protocol."""


def render_section(value: Any) -> str:
    """The body text of one prompt section, before marker escaping.

    Strings are kept verbatim; anything else becomes JSON with sorted keys,
    so the rendering — and therefore token accounting — is deterministic.
    :func:`render_prompt` renders every body here, and a caller that
    renders a body ahead of time (the Conductor's ``RETRIEVED`` memo) calls
    it too and passes the string, so both follow one convention.
    """
    return value if isinstance(value, str) else json.dumps(value, sort_keys=True, default=str)


def _reads_as_marker(line: str) -> bool:
    """Whether ``line`` is the marker behind zero or more backslashes: the
    lines render escapes with one more backslash and parse unescapes."""
    return line.lstrip("\\").startswith(SECTION_MARKER)


def _escape(body: str) -> str:
    if SECTION_MARKER not in body:
        return body
    return "\n".join("\\" + line if _reads_as_marker(line) else line for line in body.split("\n"))


def render_prompt(role: str, sections: Mapping[str, Any]) -> str:
    """Render a role plus named sections into the prompt wire format.

    Section bodies go through :func:`render_section`; a body line that
    starts with the section marker is escaped so :func:`parse_prompt` reads
    it back as body text.
    """
    if not role or "\n" in role:
        raise PromptFormatError(f"invalid role: {role!r}")
    lines = [f"{SECTION_MARKER}ROLE", _escape(role)]
    for name, value in sections.items():
        if not name or "\n" in name:
            raise PromptFormatError(f"invalid section name: {name!r}")
        upper = name.upper()
        if upper == "ROLE":
            raise PromptFormatError("section name ROLE is reserved")
        lines.append(f"{SECTION_MARKER}{upper}")
        lines.append(_escape(render_section(value)))
    return "\n".join(lines)


def parse_prompt(prompt: str) -> Tuple[str, Dict[str, str]]:
    """Parse a prompt back into (role, sections)."""
    sections: Dict[str, str] = {}
    current: Optional[str] = None
    buffer: list = []
    for line in prompt.split("\n"):
        if line.startswith(SECTION_MARKER):
            if current is not None:
                sections[current] = "\n".join(buffer).strip()
            current = line[len(SECTION_MARKER) :].strip().upper()
            buffer = []
        elif line.startswith("\\") and _reads_as_marker(line):
            buffer.append(line[1:])
        else:
            buffer.append(line)
    if current is not None:
        sections[current] = "\n".join(buffer).strip()
    role = sections.pop("ROLE", "")
    if not role:
        raise PromptFormatError("prompt has no ROLE section")
    return role, sections


def section_json(sections: Mapping[str, str], name: str, default: Any = None) -> Any:
    """Parse a JSON-bearing section; returns ``default`` when absent."""
    body = sections.get(name.upper())
    if body is None or body == "":
        return default
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise PromptFormatError(f"section {name} is not valid JSON: {exc}") from exc


def render_response(payload: Any) -> str:
    """Serialize a structured LLM response (JSON text on the wire)."""
    return json.dumps(payload, sort_keys=True, default=str)


def parse_response(text: str) -> Any:
    """Parse a structured LLM response; raises on malformed output."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise PromptFormatError(f"LLM response is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise PromptFormatError("LLM response nests too deeply to parse") from exc

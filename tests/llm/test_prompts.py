"""Unit tests for the structured prompt protocol."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.llm import (
    PromptFormatError,
    parse_prompt,
    parse_response,
    render_prompt,
    render_response,
    section_json,
)


class TestRenderParse:
    def test_round_trip(self):
        prompt = render_prompt("conductor", {"USER_MESSAGE": "hi", "STATE": {"Q": []}})
        role, sections = parse_prompt(prompt)
        assert role == "conductor"
        assert sections["USER_MESSAGE"] == "hi"
        assert section_json(sections, "STATE") == {"Q": []}

    def test_multiline_section(self):
        prompt = render_prompt("rag", {"CONTEXT": "line1\nline2"})
        _, sections = parse_prompt(prompt)
        assert sections["CONTEXT"] == "line1\nline2"

    def test_json_sections_are_deterministic(self):
        a = render_prompt("x", {"DATA": {"b": 1, "a": 2}})
        b = render_prompt("x", {"DATA": {"a": 2, "b": 1}})
        assert a == b

    def test_role_reserved(self):
        with pytest.raises(PromptFormatError):
            render_prompt("x", {"ROLE": "y"})

    def test_bad_role(self):
        with pytest.raises(PromptFormatError):
            render_prompt("bad\nrole", {})

    def test_missing_role_on_parse(self):
        with pytest.raises(PromptFormatError):
            parse_prompt("no sections here")

    def test_section_json_default(self):
        assert section_json({}, "MISSING", default=[]) == []

    def test_section_json_invalid(self):
        with pytest.raises(PromptFormatError):
            section_json({"X": "{not json"}, "X")


#: Body lines that read as section markers, escaped ones included, mixed
#: with plain text, blank lines and whitespace.
BODY_LINES = st.one_of(
    st.sampled_from(["## ROLE", "## ROLE\r", "##  X", "## ", "\\## ROLE", "\\\\## a", "\\", "##", ""]),
    st.text(alphabet="#\\ \tab\r", max_size=8),
)
BODIES = st.lists(BODY_LINES, max_size=6).map("\n".join)
NAMES = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ_", min_size=1, max_size=8).filter(
    lambda name: name != "ROLE"
)


class TestMarkerLinesInBodies:
    """A body can never open a section: marker lines round-trip as text."""

    @given(
        role=st.sampled_from(["conductor", "## ROLE", "\\## x", "user_sim"]),
        sections=st.dictionaries(NAMES, BODIES, max_size=4),
    )
    def test_round_trip(self, role, sections):
        parsed = parse_prompt(render_prompt(role, sections))
        assert parsed == (role, {k.upper(): v.strip() for k, v in sections.items()})

    def test_user_message_heading_stays_in_its_section(self):
        message = "total price by supplier?\n## Context\nonly 2023 orders"
        role, sections = parse_prompt(render_prompt("conductor", {"USER_MESSAGE": message}))
        assert (role, sections) == ("conductor", {"USER_MESSAGE": message})

    def test_plain_bodies_render_unchanged(self):
        """Escaping touches no line that could not read as a marker."""
        body = "a ## b\n#not a marker\n\\escaped? no"
        assert render_prompt("x", {"B": body}) == "## ROLE\nx\n## B\n" + body

    @pytest.mark.parametrize("name", ["", "A\nB"])
    def test_bad_section_name(self, name):
        with pytest.raises(PromptFormatError):
            render_prompt("x", {name: "y"})


class TestResponses:
    def test_round_trip(self):
        text = render_response({"action": {"kind": "retrieve"}})
        assert parse_response(text) == {"action": {"kind": "retrieve"}}

    def test_malformed_raises(self):
        with pytest.raises(PromptFormatError):
            parse_response("not json at all")

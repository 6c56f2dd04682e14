"""Text-to-speech explainer: a pure two-template answer for the one failure
mode the skill has, a timeout on overly long utterances. Zero reasoner calls."""

from __future__ import annotations

from ..framework import ExplainerError
from ..trace import ContextVector, EventView, Query

TIMEOUT_TEMPLATE = (
    "The speech was cut off because the text-to-speech skill timed out before "
    "the utterance was complete (the utterance was {length} characters long)."
)

NO_PROBLEM_TEMPLATE = (
    "I did not detect any speech problem; the text-to-speech skill behaved normally."
)


def _tts_answer(events: EventView) -> str:
    timed_out = any(
        e.kind == "skill_status"
        and e.payload.get("skill") == "text_to_speech"
        and e.payload.get("status") == "failed"
        and e.payload.get("error_code") == "timeout"
        for e in events
    )
    if not timed_out:
        return NO_PROBLEM_TEMPLATE
    length = 0
    for e in events:
        if e.kind == "dialogue" and "length" in e.payload:
            try:
                length = int(e.payload["length"])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ExplainerError(f"malformed utterance length: {e.payload['length']!r}") from exc
    return TIMEOUT_TEMPLATE.format(length=length)


def explain_tts(
    query: Query,
    context: ContextVector,
    events: EventView,
    reasoner=None,
) -> str:
    """The finding depends on the events alone: found once per event view."""
    return events.derived(_tts_answer)

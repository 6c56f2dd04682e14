"""Pinned digests of every reasoner completion over the seed 0-4 grids.

Each method's digest covers, in call order, the system prompt, user prompt,
response text and modelled latency of every completion ``run_grid`` makes
under ``LatencyModelReasoner(RuleReasoner())``; a refused completion
contributes its error instead of a response. A change that alters any
prompt byte, answer or modelled cost changes a digest. When such a change
is intended, recompute the digests and say why in the change description.
"""

from __future__ import annotations

import hashlib

import pytest

from hexar.evaluation import run_grid
from hexar.reasoner import LatencyModelReasoner, ReasonerError, RuleReasoner, TextReasoner
from hexar.scenarios import grid_triples

DIGESTS = {
    "hexar": "ae011522b66ccabff1b2b186f0ec77397e37e5cf6945dbb9c9dfe3a7970518ac",
    "end_to_end": "e1ff0f50b04cd04da7f4431d2c513ac35af40c1d98d5907186543bb52fcacb2f",
    "all_components": "5b9cd6fab21b940666f06158dd58e875dc1d96ef87cbb70e0e10ce3670ee84b5",
}


class _DigestReasoner(TextReasoner):
    def __init__(self, inner: TextReasoner) -> None:
        self.inner = inner
        self.sha = hashlib.sha256()

    def complete(self, request):
        prompts = (request.system_prompt, request.user_prompt)
        try:
            response = self.inner.complete(request)
        except ReasonerError as exc:
            self.sha.update(repr(prompts + (type(exc).__name__, str(exc))).encode())
            raise
        self.sha.update(repr(prompts + (response.text, response.latency)).encode())
        return response


@pytest.mark.parametrize("method", sorted(DIGESTS))
def test_completions_match_pinned_digest(registry, method):
    reasoner = _DigestReasoner(LatencyModelReasoner(RuleReasoner()))
    for seed in range(5):
        run_grid([method], grid_triples(), reasoner, seed, registry)
    assert reasoner.sha.hexdigest() == DIGESTS[method]

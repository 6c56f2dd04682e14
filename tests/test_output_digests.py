"""Pinned digests of every reasoner completion over the seed 0-4 grids, and
the mean modelled cost per answer at seed 0.

Each method's digest covers, in call order, the system prompt, user prompt,
response text and modelled latency of every completion ``run_grid`` makes
under ``LatencyModelReasoner(RuleReasoner())``; a refused completion
contributes its error instead of a response. A change that alters any
prompt byte, answer or modelled cost changes a digest. When such a change
is intended, recompute the digests and say why in the change description;
a change of prompt size moves the pinned cost as well.
"""

from __future__ import annotations

import hashlib

import pytest

from hexar.evaluation import run_grid
from hexar.reasoner import LatencyModelReasoner, ReasonerError, RuleReasoner, TextReasoner
from hexar.scenarios import grid_triples

DIGESTS = {
    "hexar": "9856f04d7107e2d6b7bfd3d0865bc1a8d6aa1e97db03688f6d9bb285260e13e6",
    "end_to_end": "e1ff0f50b04cd04da7f4431d2c513ac35af40c1d98d5907186543bb52fcacb2f",
    "all_components": "569b601f984799788675b8322dd3827711485c40f569db41f3e40e76fb2c2801",
}


# Mean modelled seconds and prompt chars per answer at seed 0, per method.
# Prompt chars count every attempted call; seconds bill the calls that returned.
MEAN_COST_AT_SEED_0 = {
    "hexar": (3.272, 628.8),
    "end_to_end": (8.6180, 2647.2),
    "all_components": (8.496, 2165.0),
}


class _DigestReasoner(TextReasoner):
    def __init__(self, inner: TextReasoner) -> None:
        self.inner = inner
        self.sha = hashlib.sha256()
        self.prompt_chars = 0
        self.seconds = 0.0

    def complete(self, request):
        prompts = (request.system_prompt, request.user_prompt)
        self.prompt_chars += len(request.system_prompt) + len(request.user_prompt)
        try:
            response = self.inner.complete(request)
        except ReasonerError as exc:
            self.sha.update(repr(prompts + (type(exc).__name__, str(exc))).encode())
            raise
        self.sha.update(repr(prompts + (response.text, response.latency)).encode())
        self.seconds += response.latency
        return response


@pytest.mark.parametrize("method", sorted(DIGESTS))
def test_completions_match_pinned_digest(registry, method):
    reasoner = _DigestReasoner(LatencyModelReasoner(RuleReasoner()))
    for seed in range(5):
        run_grid([method], grid_triples(), reasoner, seed, registry)
    assert reasoner.sha.hexdigest() == DIGESTS[method]


@pytest.mark.parametrize("method", sorted(MEAN_COST_AT_SEED_0))
def test_mean_modelled_cost_at_seed_0_is_pinned(registry, method):
    """A prompt change shows here as a cost diff, in the paper's runtime metric."""
    reasoner = _DigestReasoner(LatencyModelReasoner(RuleReasoner()))
    answers = len(run_grid([method], grid_triples(), reasoner, 0, registry))
    mean = (round(reasoner.seconds / answers, 4), round(reasoner.prompt_chars / answers, 1))
    assert mean == MEAN_COST_AT_SEED_0[method]

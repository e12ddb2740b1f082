"""Frozen copy of ``mutator.run_campaign`` as it stood before it learned
to skip repeated actions and no-op candidates: every step that builds a
candidate scores it.

The tests compare the package's ``run_campaign`` with ``run_campaign``
here field by field.  Skipping a step whose result is already known must
change the number of scorer calls and nothing else.  Keep this file as it
is.
"""

from __future__ import annotations

import numpy as np

from advforge import pe
from advforge.mutator import (
    CampaignConfig,
    CampaignResult,
    ContentPool,
    InvalidInput,
    InvalidTarget,
    MutationAction,
    MutationPlan,
    _derive_seed,
    _sample_action,
    apply_action,
)


def run_campaign(
    data: bytes,
    scorer,
    config: CampaignConfig,
    pool: ContentPool | None = None,
) -> CampaignResult:
    try:
        current_image = pe.parse(data)
    except pe.PeError as exc:
        raise InvalidInput(f"input is not a valid PE: {exc.args[0]}") from exc

    rng = np.random.default_rng(config.rng_seed)
    current_bytes = data
    current_score = float(scorer(current_bytes, current_image))
    trace: list[tuple[int, float]] = [(0, current_score)]
    accepted: list[MutationAction] = []
    steps_used = 0

    if current_score >= config.score_threshold:
        for step in range(1, config.max_steps + 1):
            steps_used = step
            action = _sample_action(
                rng, current_image, config.allowed_actions, pool is not None
            )
            seed = _derive_seed(config.rng_seed, len(accepted))
            try:
                candidate_image = apply_action(current_image, action, seed, pool)
                candidate_bytes = pe.serialize(candidate_image)
            except (InvalidTarget, pe.LayoutOverflow):
                continue
            score = float(scorer(candidate_bytes, candidate_image))
            if score < current_score:
                current_image = candidate_image
                current_bytes = candidate_bytes
                current_score = score
                accepted.append(action)
                trace.append((step, score))
                if score < config.score_threshold:
                    break

    return CampaignResult(
        final_bytes=current_bytes,
        plan=MutationPlan(actions=tuple(accepted), rng_seed=config.rng_seed),
        score_trace=tuple(trace),
        evaded=current_score < config.score_threshold,
        steps_used=steps_used,
    )

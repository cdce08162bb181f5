"""Synthetic dialogue-restoration corpus.

Each template builds a (context, incomplete, reference) triple where the
reference re-inserts one or two entities mentioned in the context in place
of a pronoun or an ellipsis, so every sample is guaranteed at least one
clue token and at least one exact-match important context word.
"""

from __future__ import annotations

import numpy as np

from .corpus import DialogueSample

BANDS = (
    "paramore", "nirvana", "radiohead", "coldplay", "blur", "oasis",
    "muse", "genesis", "wilco", "spoon", "phoenix", "beck", "bjork",
    "sting", "moby", "seal", "shakira", "adele", "rihanna", "madonna",
)

YEARS = (
    "1979", "1985", "1988", "1991", "1994", "1998",
    "2001", "2004", "2007", "2010", "2013", "2016",
)

CITIES = (
    "london", "paris", "berlin", "tokyo", "oslo",
    "madrid", "dublin", "vienna",
)

VERBS = ("tour", "record", "perform", "play", "rehearse", "improvise")


def _t0(rng) -> tuple[list[str], str, str]:
    band = _pick(rng, BANDS)
    year = _pick(rng, YEARS)
    verb = _pick(rng, VERBS)
    return (
        [f"{band} formed in {year}"],
        f"when did they start to {verb}",
        f"when did {band} start to {verb}",
    )


def _t1(rng) -> tuple[list[str], str, str]:
    band = _pick(rng, BANDS)
    return (
        [f"i listened to {band} yesterday", "do you like them"],
        "what album should i try first",
        f"what {band} album should i try first",
    )


def _t2(rng) -> tuple[list[str], str, str]:
    band = _pick(rng, BANDS)
    city = _pick(rng, CITIES)
    verb = _pick(rng, VERBS)
    return (
        [f"{band} played in {city} last summer"],
        f"did they {verb} there",
        f"did {band} {verb} in {city}",
    )


def _t3(rng) -> tuple[list[str], str, str]:
    band1 = _pick(rng, BANDS)
    band2 = _pick(rng, BANDS, exclude=band1)
    return (
        [f"{band1} released a new album", f"{band2} announced a tour"],
        "when do they start",
        f"when does {band2} start",
    )


def _t4(rng) -> tuple[list[str], str, str]:
    band = _pick(rng, BANDS)
    year = _pick(rng, YEARS)
    return (
        [f"{band} broke up in {year}"],
        "why did they break up then",
        f"why did {band} break up in {year}",
    )


def _t5(rng) -> tuple[list[str], str, str]:
    band = _pick(rng, BANDS)
    city = _pick(rng, CITIES)
    year = _pick(rng, YEARS)
    return (
        [f"{band} moved to {city} in {year}"],
        "what did they do there",
        f"what did {band} do in {city}",
    )


TEMPLATES = (_t0, _t1, _t2, _t3, _t4, _t5)


def _pick(rng, pool, exclude=None):
    choices = [item for item in pool if item != exclude]
    return choices[int(rng.integers(len(choices)))]


def generate_corpus(
    size: int, seed: int, templates: tuple[int, ...] | None = None
) -> list[DialogueSample]:
    """Seed-deterministic corpus of templated restoration samples."""
    if size < 1:
        raise ValueError(f"size must be >= 1, not {size}")
    if templates is not None and not (
        templates and all(0 <= i < len(TEMPLATES) for i in templates)
    ):
        raise ValueError(f"templates must be one or more indices in "
                         f"0..{len(TEMPLATES) - 1}, not {list(templates)}")
    selected = TEMPLATES if templates is None else tuple(TEMPLATES[i] for i in templates)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    samples = []
    for i in range(size):
        template = selected[int(rng.integers(len(selected)))]
        context, incomplete, reference = template(rng)
        samples.append(
            DialogueSample(tuple(context), incomplete, reference, id=str(i))
        )
    return samples

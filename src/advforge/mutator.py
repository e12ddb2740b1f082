"""Functionality-preserving PE mutations and a random-agent hill climb.

Actions rewrite structural fields or append fresh content; none of them
touch existing code or data bytes, so the program the file encodes is
unchanged.  ``run_campaign`` drives a scorer with uniformly sampled
actions and keeps only strict score improvements.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields, replace

import numpy as np

from . import pe
from .records import list_files

# The fields each action kind takes, in serialized order.  ACTION_KINDS
# keeps this order: _sample_action indexes it with the campaign RNG.
ACTION_FIELDS = {
    "overlay_append": ("content_len", "source"),
    "section_add": ("content_len", "source", "name"),
    "section_rename": ("name", "index"),
    "checksum_zero": (),
    "cert_wipe": (),
    "debug_wipe": (),
    "timestamp_adjust": ("delta",),
    "dos_stub_extend": ("content_len", "source"),
}
ACTION_KINDS = tuple(ACTION_FIELDS)

CONTENT_SOURCES = ("random", "benign-pool")

# Default detection threshold; scores below it count as evasion.
DEFAULT_THRESHOLD = 0.871
DEFAULT_MAX_STEPS = 200

# content_len is drawn log-uniformly from this range when sampling actions.
MIN_CONTENT_LEN = 16
MAX_CONTENT_LEN = 65536

# timestamp_adjust delta is drawn uniformly from +/- one year of seconds.
MAX_TIMESTAMP_DELTA = 31_536_000

# Section names seen in binaries emitted by common linkers.
SECTION_NAMES = (
    ".text", ".rdata", ".data", ".pdata", ".reloc", ".rsrc", ".idata",
    ".edata", ".tls", ".bss", ".xdata", ".didat", ".crt", ".gfids",
    ".00cfg", ".stub", ".sdata", ".srdata", ".ndata", ".itext", ".dtext",
    ".code", ".icode", ".textbss", ".orpc", ".shared", ".detourc",
    ".detourd", ".minfo", ".msvcjmc", ".retplne", ".voltbl",
)

_SEED_STRIDE = 0x9E3779B97F4A7C15


class MutatorError(Exception):
    pass


class InvalidTarget(MutatorError):
    """The action cannot be applied to this image (bad index, no room)."""


class InvalidInput(MutatorError):
    """Campaign input failed PE validation."""


@dataclass(frozen=True)
class MutationAction:
    """One structural edit, tagged by ``kind``.

    A kind takes the fields ``ACTION_FIELDS`` lists for it.  Every other
    field must stay at its default, so an action serializes to its kind
    plus those fields, and a dict carrying any other field is rejected.
    """

    kind: str
    content_len: int = 0
    source: str = "random"
    name: str = ""
    index: int = 0
    delta: int = 0

    def __post_init__(self) -> None:
        taken = ACTION_FIELDS.get(self.kind)
        if taken is None:
            raise ValueError(f"unknown action kind {self.kind!r}")
        for name, default in _FIELD_DEFAULTS.items():
            if name not in taken and getattr(self, name) != default:
                raise ValueError(f"{self.kind} takes no {name}")
        if self.source not in CONTENT_SOURCES:
            raise ValueError(f"unknown content source {self.source!r}")
        if "content_len" in taken and self.content_len < 1:
            raise ValueError("content_len must be >= 1")
        if "name" in taken and not 0 < len(self.name.encode("ascii")) <= 8:
            raise ValueError("section name must be 1..8 ASCII bytes")
        if self.index < 0:
            raise ValueError("index must be non-negative")

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for name in ACTION_FIELDS[self.kind]:
            out[name] = getattr(self, name)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MutationAction":
        return cls(**data)


_FIELD_DEFAULTS = {f.name: f.default for f in fields(MutationAction)
                   if f.name != "kind"}


@dataclass(frozen=True)
class MutationPlan:
    """Ordered actions plus the seed that regenerates their content."""

    actions: tuple[MutationAction, ...]
    rng_seed: int

    def to_dict(self) -> dict:
        return {
            "rng_seed": self.rng_seed,
            "actions": [a.to_dict() for a in self.actions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MutationPlan":
        actions = tuple(MutationAction.from_dict(a) for a in data["actions"])
        return cls(actions=actions, rng_seed=int(data["rng_seed"]))


@dataclass(frozen=True)
class CampaignConfig:
    max_steps: int = DEFAULT_MAX_STEPS
    score_threshold: float = DEFAULT_THRESHOLD
    rng_seed: int = 0
    allowed_actions: tuple[str, ...] = ACTION_KINDS

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not 0.0 <= self.score_threshold <= 1.0:
            raise ValueError("score_threshold must be in [0, 1]")
        for kind in self.allowed_actions:
            if kind not in ACTION_KINDS:
                raise ValueError(f"unknown action kind {kind!r}")


@dataclass(frozen=True)
class CampaignResult:
    final_bytes: bytes
    plan: MutationPlan
    score_trace: tuple[tuple[int, float], ...]
    evaded: bool
    steps_used: int


class ContentPool:
    """Benign content sampled as contiguous slices of clean files.

    Slices wrap around short blobs so any requested length is served.
    """

    def __init__(self, blobs: list[bytes]):
        if not blobs or any(len(b) == 0 for b in blobs):
            raise ValueError("pool requires at least one non-empty blob")
        self.blobs = [bytes(b) for b in blobs]

    @classmethod
    def from_dir(cls, path) -> "ContentPool":
        """The non-empty files of ``path``; an unreadable entry raises."""
        blobs = (p.read_bytes() for p in list_files(path))
        return cls([blob for blob in blobs if blob])

    @classmethod
    def fallback(cls) -> "ContentPool":
        from .synth import fallback_benign_pool

        return cls(fallback_benign_pool())

    def sample(self, rng: np.random.Generator, n: int) -> bytes:
        blob = self.blobs[int(rng.integers(len(self.blobs)))]
        start = int(rng.integers(len(blob)))
        reps = -(-(start + n) // len(blob))
        return (blob * reps)[start : start + n]


def _derive_seed(seed: int, position: int) -> int:
    return (seed + _SEED_STRIDE * (position + 1)) % (1 << 64)


def _generate_content(
    n: int, source: str, rng: np.random.Generator, pool: ContentPool | None
) -> bytes:
    if source == "random":
        return rng.integers(0, 256, n, dtype=np.uint8).tobytes()
    if pool is None:
        raise InvalidTarget("benign-pool source requires a content pool")
    return pool.sample(rng, n)


def _next_virtual_address(image: pe.PeImage, alignment: int) -> int:
    end = alignment
    for s in image.sections:
        span = max(s.virtual_size, 1)
        end = max(end, s.virtual_address + _align(span, alignment))
    return end


def _align(value: int, alignment: int) -> int:
    rem = value % alignment
    return value if rem == 0 else value + alignment - rem


def apply_action(
    image: pe.PeImage,
    action: MutationAction,
    rng_seed: int,
    pool: ContentPool | None = None,
) -> pe.PeImage:
    """Return a copy of ``image`` with one action applied.

    Raises InvalidTarget when the action does not fit this image.  Growth
    that pushes the headers into section data is left to the serializer:
    ``pe.serialize`` of the returned image raises pe.LayoutOverflow.
    """
    rng = np.random.default_rng(rng_seed)
    kind = action.kind

    if kind == "overlay_append":
        content = _generate_content(action.content_len, action.source, rng, pool)
        return replace(image, overlay=image.overlay + content)

    if kind == "section_add":
        file_align = image.optional.file_alignment or 512
        sect_align = image.optional.section_alignment or 4096
        new_table_end = image.section_table_end + pe.SECTION_ENTRY_SIZE
        content = _generate_content(action.content_len, action.source, rng, pool)
        raw_size = _align(len(content), file_align)
        raw_offset = _align(max(image.overlay_offset, new_table_end), file_align)
        vaddr = _next_virtual_address(image, sect_align)
        entry = pe.SectionEntry(
            name=action.name.encode("ascii").ljust(8, b"\x00"),
            virtual_size=len(content),
            virtual_address=vaddr,
            raw_size=raw_size,
            raw_offset=raw_offset,
            reloc_offset=0,
            linenum_offset=0,
            reloc_count=0,
            linenum_count=0,
            characteristics=0x40000040,
            raw_data=content + b"\x00" * (raw_size - len(content)),
        )
        optional = image.optional.copy()
        optional.size_of_image = max(
            optional.size_of_image,
            vaddr + _align(max(len(content), 1), sect_align),
        )
        return replace(
            image, sections=image.sections + (entry,), optional=optional
        )

    if kind == "section_rename":
        if action.index >= len(image.sections):
            raise InvalidTarget(f"no section at index {action.index}")
        target = image.sections[action.index]
        renamed = replace(
            target, name=action.name.encode("ascii").ljust(8, b"\x00")
        )
        sections = (
            image.sections[: action.index]
            + (renamed,)
            + image.sections[action.index + 1 :]
        )
        return replace(image, sections=sections)

    if kind == "checksum_zero":
        optional = image.optional.copy()
        optional.checksum = 0
        return replace(image, optional=optional)

    if kind in ("cert_wipe", "debug_wipe"):
        index = pe.DIR_SECURITY if kind == "cert_wipe" else pe.DIR_DEBUG
        if image.optional.num_data_directories <= index:
            raise InvalidTarget(f"image has no data directory {index}")
        optional = image.optional.copy()
        optional.set_data_directory(index, 0, 0)
        return replace(image, optional=optional)

    if kind == "timestamp_adjust":
        stamp = (image.coff.timestamp + action.delta) % (1 << 32)
        return replace(image, coff=replace(image.coff, timestamp=stamp))

    if kind == "dos_stub_extend":
        content = _generate_content(action.content_len, action.source, rng, pool)
        new_dos = bytearray(image.dos_header + content)
        struct.pack_into("<I", new_dos, pe.E_LFANEW_OFFSET, len(new_dos))
        return replace(image, dos_header=bytes(new_dos))

    raise ValueError(f"unknown action kind {kind!r}")


def apply_plan(
    data: bytes, plan: MutationPlan, pool: ContentPool | None = None
) -> bytes:
    """Replay a plan against raw bytes; deterministic in (data, plan)."""
    image = pe.parse(data)
    for position, action in enumerate(plan.actions):
        image = apply_action(
            image, action, _derive_seed(plan.rng_seed, position), pool
        )
    return pe.serialize(image)


def _sample_action(
    rng: np.random.Generator,
    image: pe.PeImage,
    allowed: tuple[str, ...],
    has_pool: bool,
) -> MutationAction:
    kind = allowed[int(rng.integers(len(allowed)))]
    length = int(
        round(
            math.exp(
                rng.uniform(math.log(MIN_CONTENT_LEN), math.log(MAX_CONTENT_LEN))
            )
        )
    )
    length = min(max(length, MIN_CONTENT_LEN), MAX_CONTENT_LEN)
    source = "benign-pool" if has_pool and rng.random() < 0.5 else "random"
    drawn = {"content_len": length, "source": source,
             "name": SECTION_NAMES[int(rng.integers(len(SECTION_NAMES)))]}
    taken = ACTION_FIELDS[kind]
    if "index" in taken:
        drawn["index"] = int(rng.integers(max(1, len(image.sections))))
    if "delta" in taken:
        drawn["delta"] = int(
            rng.integers(-MAX_TIMESTAMP_DELTA, MAX_TIMESTAMP_DELTA + 1))
    return MutationAction(kind, **{name: drawn[name] for name in taken})


def run_campaign(
    data: bytes,
    scorer,
    config: CampaignConfig,
    pool: ContentPool | None = None,
) -> CampaignResult:
    """Hill-climb ``data`` against ``scorer``, a callable from a
    candidate's bytes and its ``pe.PeImage`` to a score, until it scores
    below the threshold or the step budget runs out.

    Each step samples one action uniformly from the allowed set, applies
    it, and keeps the candidate only on strict score improvement.  Content
    for the i-th accepted action is generated from a seed derived from
    (config.rng_seed, i), so the returned plan replays byte-identically.

    A step whose action was already tried on the current state, or whose
    candidate equals the current bytes, is skipped without a scorer call:
    it would rebuild a candidate already rejected, or one scoring the
    same.  The step still counts, so ``scorer`` must be a function of the
    bytes for the skip to change nothing but the number of calls.
    """
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
        # the state, the content seed and the pool change only on
        # acceptance, so until then a repeated action repeats its result
        tried: set[MutationAction] = set()
        for step in range(1, config.max_steps + 1):
            steps_used = step
            action = _sample_action(
                rng, current_image, config.allowed_actions, pool is not None
            )
            if action in tried:
                continue
            tried.add(action)
            seed = _derive_seed(config.rng_seed, len(accepted))
            try:
                candidate_image = apply_action(current_image, action, seed, pool)
                candidate_bytes = pe.serialize(candidate_image)
            except (InvalidTarget, pe.LayoutOverflow):
                continue
            if candidate_bytes == current_bytes:
                continue
            score = float(scorer(candidate_bytes, candidate_image))
            if score < current_score:
                current_image = candidate_image
                current_bytes = candidate_bytes
                current_score = score
                accepted.append(action)
                tried.clear()
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

"""CoNLL POS/FEATS annotations to UniMorph-style tag sequences.

The bundled English table is a hand-built approximation shipped as data
(``data/en_unimorph.map``) so it can be edited without touching code.
Unknown inputs degrade gracefully: the tag still comes out, the problem
is counted in the caller's diagnostics list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

DROP = "DROP"
UNKNOWN_POS_CLASS = "X"

@dataclass(frozen=True)
class MorphTag:
    """UniMorph-style tag sequence; first element is the POS class."""

    tags: tuple[str, ...]

    def __str__(self) -> str:
        return ";".join(self.tags)

    @classmethod
    def parse(cls, text: str) -> "MorphTag":
        tags = tuple(t for t in text.strip().split(";") if t)
        if not tags:
            raise ValueError(f"empty morphological tag: {text!r}")
        return cls(tags)


@dataclass(frozen=True)
class MappingTable:
    """POS and (key, value) feature mappings onto UniMorph-style tags."""

    pos_map: dict[str, str]
    feat_map: dict[tuple[str, str], str]

    @classmethod
    def parse(cls, text: str) -> "MappingTable":
        """Parse table lines: 'POS<TAB>NOUN<TAB>N' or 'FEAT<TAB>Number=Sing<TAB>SING'."""
        pos_map: dict[str, str] = {}
        feat_map: dict[tuple[str, str], str] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 3:
                raise ValueError(f"mapping line {lineno}: expected 3 tab-separated fields")
            kind, source, target = cols
            if kind == "POS":
                pos_map[source] = target
            elif kind == "FEAT":
                key, sep, val = source.partition("=")
                if not sep:
                    raise ValueError(f"mapping line {lineno}: FEAT source must be Key=Val")
                feat_map[(key, val)] = target
            else:
                raise ValueError(f"mapping line {lineno}: unknown record kind {kind!r}")
        return cls(pos_map, feat_map)


@lru_cache(maxsize=1)
def default_table() -> MappingTable:
    """The bundled English mapping table."""
    text = resources.files("udrealize.data").joinpath("en_unimorph.map").read_text("utf-8")
    return MappingTable.parse(text)


def convert(
    upos: str,
    feats: list[tuple[str, str]],
    table: MappingTable | None = None,
    diagnostics: list[str] | None = None,
) -> MorphTag:
    """Map a POS tag plus CoNLL features onto a MorphTag.

    Features are applied in alphabetical key order regardless of input
    order; DROP-mapped and unknown features are omitted (unknown ones are
    counted in ``diagnostics``).  An unknown POS maps to class "X".
    """
    table = table or default_table()
    tags: list[str] = []
    pos_class = table.pos_map.get(upos)
    if pos_class is None:
        pos_class = UNKNOWN_POS_CLASS
        if diagnostics is not None:
            diagnostics.append(f"unknown POS tag {upos!r} mapped to {UNKNOWN_POS_CLASS}")
    tags.append(pos_class)
    for key, val in sorted(feats):
        mapped = table.feat_map.get((key, val))
        if mapped is None:
            if diagnostics is not None:
                diagnostics.append(f"unknown feature {key}={val} omitted")
            continue
        if mapped == DROP or mapped in tags:
            continue
        tags.append(mapped)
    return MorphTag(tuple(tags))


def build_inventory(tags: "list[MorphTag] | tuple[MorphTag, ...]") -> tuple[str, ...]:
    """Sorted union of all tag elements seen in a training set."""
    union: set[str] = set()
    for tag in tags:
        union.update(tag.tags)
    return tuple(sorted(union))


def feature_vector(
    tag: MorphTag,
    inventory: tuple[str, ...] | list[str],
    diagnostics: list[str] | None = None,
) -> np.ndarray:
    """Binary membership vector of ``tag`` over ``inventory`` (float64).

    Tag elements missing from the inventory are ignored with a diagnostic.
    """
    index = {t: i for i, t in enumerate(inventory)}
    vec = np.zeros(len(inventory), dtype=np.float64)
    for t in tag.tags:
        pos = index.get(t)
        if pos is None:
            if diagnostics is not None:
                diagnostics.append(f"tag {t!r} not in inventory, ignored")
            continue
        vec[pos] = 1.0
    return vec

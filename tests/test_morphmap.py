import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udrealize.morphmap import (
    MappingTable,
    MorphTag,
    build_inventory,
    convert,
    default_table,
    feature_vector,
)


def test_noun_singular_maps_to_printed_form():
    assert str(convert("NOUN", [("Number", "Sing")])) == "N;SING"


def test_noun_without_features():
    assert str(convert("NOUN", [])) == "N"


def test_verb_past_finite():
    # bundled table: Tense=Past -> PST, VerbForm=Fin -> FIN (keys applied
    # alphabetically: Tense before VerbForm)
    assert str(convert("VERB", [("Tense", "Past"), ("VerbForm", "Fin")])) == "V;PST;FIN"


def test_unknown_pos_degrades_to_x():
    diags = []
    tag = convert("BLORP", [("Number", "Sing")], diagnostics=diags)
    assert tag.tags[0] == "X"
    assert any("BLORP" in d for d in diags)


def test_unknown_feature_omitted_and_counted():
    diags = []
    tag = convert("NOUN", [("Number", "Sing"), ("Weird", "Thing")], diagnostics=diags)
    assert str(tag) == "N;SING"
    assert len(diags) == 1


def test_dropped_feature_omitted_silently():
    diags = []
    tag = convert("ADJ", [("Degree", "Pos")], diagnostics=diags)
    assert str(tag) == "ADJ"
    assert diags == []


def test_convert_is_order_insensitive():
    feats = [("VerbForm", "Fin"), ("Mood", "Ind"), ("Tense", "Pres")]
    expected = convert("VERB", feats)
    assert convert("VERB", feats[::-1]) == expected
    assert convert("VERB", [feats[1], feats[0], feats[2]]) == expected


_table_feats = sorted(default_table().feat_map)


@given(
    st.sampled_from(sorted(default_table().pos_map)),
    st.lists(st.sampled_from(_table_feats), max_size=4, unique=True),
)
@settings(max_examples=100)
def test_bundled_table_output_is_well_formed(upos, feats):
    tag = convert(upos, list(feats))
    assert re.match(r"^[A-Z0-9.]+(;[A-Z0-9.]+)*$", str(tag))
    assert tag.tags[0] == default_table().pos_map[upos]


def test_morphtag_parse_and_str_round_trip():
    tag = MorphTag.parse("V;PST;FIN")
    assert tag.tags == ("V", "PST", "FIN")
    assert str(tag) == "V;PST;FIN"
    with pytest.raises(ValueError):
        MorphTag.parse(";")


def test_feature_vector_example():
    inventory = ("ADJ", "N", "PL", "SING", "V")
    vec = feature_vector(MorphTag(("N", "SING")), inventory)
    assert vec.tolist() == [0.0, 1.0, 0.0, 1.0, 0.0]


def test_feature_vector_empty_inventory():
    assert feature_vector(MorphTag(("N",)), ()).shape == (0,)


def test_feature_vector_unseen_tag_ignored():
    inventory = ("N", "PL")
    diags = []
    with_unseen = feature_vector(MorphTag(("N", "WEIRD")), inventory, diags)
    without = feature_vector(MorphTag(("N",)), inventory)
    assert np.array_equal(with_unseen, without)
    assert len(diags) == 1


@given(st.lists(st.sampled_from(["N", "V", "PL", "SING", "PST", "FIN"]), min_size=1, unique=True))
def test_feature_vector_ones_count(tags):
    inventory = ("FIN", "N", "PL", "PST", "SING")
    tag = MorphTag(tuple(tags))
    vec = feature_vector(tag, inventory)
    assert int(vec.sum()) == len(set(tags) & set(inventory))


def test_mapping_table_parse_custom():
    table = MappingTable.parse(
        "# comment\n"
        "POS\tNOUN\tN\n"
        "FEAT\tNumber=Sing\tSG\n"
        "FEAT\tDegree=Pos\tDROP\n"
    )
    assert str(convert("NOUN", [("Number", "Sing"), ("Degree", "Pos")], table)) == "N;SG"


def test_mapping_table_parse_errors():
    with pytest.raises(ValueError):
        MappingTable.parse("POS\tNOUN\n")
    with pytest.raises(ValueError):
        MappingTable.parse("FEAT\tNumberSing\tSG\n")
    with pytest.raises(ValueError):
        MappingTable.parse("WAT\ta\tb\n")


def test_build_inventory_sorted_union():
    tags = [MorphTag(("V", "PST")), MorphTag(("N", "PL")), MorphTag(("N",))]
    assert build_inventory(tags) == ("N", "PL", "PST", "V")

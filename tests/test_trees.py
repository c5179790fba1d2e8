from collections import defaultdict
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from helpers import bracketed, leaf, node, subtrees, tokens
from selrestr import trees as trees_module
from selrestr.trees import ParseTree, TreeSyntaxError, parse_bracketed, read_trees


SIMPLE = "(S (NP (NN dog)) (VP (VBZ barks)))"


class TestParse:
    def test_single_tree(self):
        trees = parse_bracketed(SIMPLE)
        assert len(trees) == 1
        assert trees[0].label == "S"
        assert tokens(trees[0]) == ["dog", "barks"]

    def test_two_concatenated_trees(self):
        trees = parse_bracketed(SIMPLE + "\n" + SIMPLE)
        assert len(trees) == 2

    def test_empty_input_gives_no_trees(self):
        assert parse_bracketed("  \n ") == []

    def test_leaf_structure(self):
        (tree,) = parse_bracketed("(NN dog)")
        assert tree.token == "dog"

    def test_roundtrip_str(self):
        (tree,) = parse_bracketed(SIMPLE)
        assert bracketed(tree) == SIMPLE

    def test_nested_depth(self):
        (tree,) = parse_bracketed("(A (B (C (D x))))")
        labels = [t.label for t in subtrees(tree)]
        assert labels == ["A", "B", "C", "D"]

    def test_leaves_in_order(self):
        (tree,) = parse_bracketed("(S (NP (DT the) (NN dog)) (VP (VBZ barks)))")
        assert tokens(tree) == ["the", "dog", "barks"]


    def test_label_after_children_quirk(self):
        # An unlabeled bracket takes the first stray atom as its label,
        # even after its children.
        (tree,) = parse_bracketed("((NN dog) X)")
        assert tree == node("X", leaf("NN", "dog"))

    def test_whitespace_inside_leaf_brackets(self):
        (tree,) = parse_bracketed("( NN\u3000dog\x1c)")
        assert tree == leaf("NN", "dog")

    def test_leaf_tree_at_top_level(self):
        assert parse_bracketed("(NN dog) (VB run)") == [leaf("NN", "dog"), leaf("VB", "run")]


class TestDeepTrees:
    DEPTH = 5000

    def deep_text(self):
        return "(S " + "(NP " * self.DEPTH + "(NN dog)" + ")" * self.DEPTH + " (VP (VBZ barks)))"

    def test_deep_np_parses_and_round_trips(self):
        text = self.deep_text()
        (tree,) = parse_bracketed(text)
        assert bracketed(tree) == text
        assert tokens(tree) == ["dog", "barks"]
        assert [t.label for t in subtrees(tree) if t.token is not None] == ["NN", "VBZ"]
        labels = [t.label for t in subtrees(tree)]
        assert labels == ["S"] + ["NP"] * self.DEPTH + ["NN", "VP", "VBZ"]


class TestNodes:
    def test_fields_repr_and_equality(self):
        tree = leaf("NN", "dog")
        assert (tree.label, tree.children, tree.token) == ("NN", (), "dog")
        assert repr(tree) == "ParseTree(label='NN', children=(), token='dog')"
        assert tree == ParseTree("NN", token="dog")
        assert hash(tree) == hash(ParseTree("NN", token="dog"))
        assert tree != leaf("NN", "cat")

    @pytest.mark.parametrize(
        "args, message",
        [
            (("",), "empty node label"),
            (("NP",), "must have children or a token"),
            (("NP", (leaf("NN", "dog"),), "x"), "must have children or a token"),
        ],
    )
    def test_validation(self, args, message):
        with pytest.raises(ValueError, match=message):
            ParseTree(*args)

    def test_immutable(self):
        tree = leaf("NN", "dog")
        with pytest.raises(AttributeError):
            tree.label = "VB"


# Texts for the differential property: fragments that make well-formed
# trees, every error and the whitespace quirks, including Unicode
# whitespace that str.isspace accepts.
_WHITESPACE = [" ", "\n", "\t", "\r", "\x0b", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]
_FRAGMENTS = ["(", ")", "(", ")", "S", "NP", "NN", "dog", "x", "(NN dog)", "\u00e9t\u00e9"]
bracket_texts = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS + _WHITESPACE), max_size=30).map("".join),
    st.text(alphabet="()ab" + "".join(_WHITESPACE), max_size=30),
)


def _render(tree, draw_space) -> str:
    """A (label, children) tree as text; a leaf's only child is its token."""
    if isinstance(tree, str):
        return tree
    label, children = tree
    inner = "".join(draw_space() + _render(c, draw_space) for c in children)
    return "(" + draw_space(optional=True) + label + inner + draw_space(optional=True) + ")"


@st.composite
def well_formed_texts(draw):
    labels = st.sampled_from(["S", "NP", "VP", "NN", "x"])
    leaves = st.tuples(labels, st.tuples(st.sampled_from(["dog", "runs", "7", "\u00e9"])))
    trees = st.recursive(
        leaves,
        lambda inner: st.tuples(labels, st.lists(inner, min_size=1, max_size=3)),
        max_leaves=12,
    )

    def draw_space(optional=False):
        return draw(st.text(alphabet=_WHITESPACE, min_size=0 if optional else 1, max_size=2))

    forest = draw(st.lists(trees, max_size=3))
    return "".join(draw_space(optional=True) + _render(t, draw_space) for t in forest)


@st.composite
def broken_after_repeats(draw):
    """A well-formed forest two or three times over, so that its words and
    leaves repeat, then a fragment that makes the text ill-formed: a stray
    ")" or token, a leaf of two tokens, an unclosed "(", an empty or mixed
    constituent, or a word to cut such as "dog)(NN"."""
    text = draw(well_formed_texts()) * draw(st.integers(2, 3))
    tail = draw(
        st.sampled_from(
            [")", "dog)", "(NN dog cat)", "(", "(S (NN dog)(NN", "dog)(NN", "(X)", "(S (NN dog) x)"]
        )
    )
    return text + draw(st.sampled_from(_WHITESPACE)) + tail


def _outcome(parse, error, text):
    try:
        return "trees", parse(text)
    except error as exc:
        return "error", str(exc), exc.offset


class TestAgainstReference:
    """The piece-at-a-time reader against the character-at-a-time
    reference reader.  The examples cover each piece shape: a label, a
    leaf with or without more ")" after it, with any whitespace before a
    ")", and anything else, such as a bare "(" or a leaf and a token."""

    @settings(max_examples=200, deadline=None)
    @given(text=st.one_of(bracket_texts, well_formed_texts(), broken_after_repeats()))
    @example("((NN dog) X)")
    @example("((")
    @example("(NN dog cat)")
    @example("(NP (NN dog) stray)")
    @example("(NP stray (NN dog))")
    @example("(S ()) x")
    @example("dog (S (NN dog)")
    @example("(NN\x1cdog\u3000)")
    @example("(X)")
    @example("(NP(DT the))")
    @example("(DT the)(NN dog)")
    @example("( NN dog )")
    @example("( dog)")
    @example("dog)")
    @example("(NN dog))")
    @example("(S\n  (NP (NN dog))\n  (VP (VBZ barks)))\n(NN\ncat\n)")
    @example("(S (NN dog))\n(S (NN cat))\n(S (NN cow) cat)\n")
    @example("(S (NN dog))\n\n  (S (NN cat)) )")
    @example("(S (NN dog))\n (NN cat) x")
    @example("(A(B x)y)")
    @example("()x(")
    @example("(S (NN dog) (NN dog))\n(S (NN dog) (NN dog)))")
    @example("(S (NN dog) (NN dog))\n(S (NN dog) (NN dog cat))")
    @example("(S (NN dog) (NN dog))\n(S (NN dog) (NN dog)")
    @example("(S (NN dog)(NN dog))(S (NN dog)(NN")
    @example("(S (NN dog) (NN dog)) dog)(NN dog)")
    @example("(S (NN dog) (NN dog) (NP (NN dog)) (X))")
    @example("(S (NN dog) (NN dog) (NP (NN dog) dog))")
    @example("(NN dog) )")
    @example("(NN dog )")
    @example("(NN dog\n)")
    @example("(S\n(NP (NN dog)))")
    @example("(S (NN dog))\n)\n")
    def test_same_trees_or_same_error(self, text):
        got = _outcome(parse_bracketed, TreeSyntaxError, text)
        assert got == _outcome(oracle.parse_bracketed, oracle.OracleSyntaxError, text)
        if got[0] == "trees":
            for tree in got[1]:
                assert all(type(t) is ParseTree for t in subtrees(tree))
                assert parse_bracketed(bracketed(tree)) == [tree]


class TestNoScanWithoutError:
    """The reader looks an offset up in the text only when it raises: a
    scan per piece would make parsing quadratic in the text."""

    @settings(max_examples=100, deadline=None)
    @given(text=well_formed_texts())
    @example(text=SIMPLE + "\n" + SIMPLE)
    @example(text="(S\n  (NP (NN dog))\n  (VP (VBZ barks)))\n" * 3)
    @example(text="(NN dog\n)" * 200)
    @example(text="(S\n(NN\ncat\n)\n)\n(NP(DT the)(NN dog))")
    @example(text="((NN dog) X)\n" * 50)  # pieces read atom by atom
    def test_well_formed_text_in_any_layout(self, text):
        calls = []
        with mock.patch.object(trees_module, "_nth", lambda *args: calls.append(args)):
            parse_bracketed(text)
        assert calls == []


def _objects(trees):
    """For each distinct label, token and leaf in ``trees``, the ids of the
    objects that stand for it."""
    labels, tokens_, leaves = defaultdict(set), defaultdict(set), defaultdict(set)
    for tree in trees:
        for t in subtrees(tree):
            labels[t.label].add(id(t.label))
            if t.token is not None:
                tokens_[t.token].add(id(t.token))
                leaves[t].add(id(t))
    return labels, tokens_, leaves


class TestSharing:
    """Within one parse, each distinct label, token and leaf is one object."""

    def check(self, text):
        trees = parse_bracketed(text)
        assert trees == oracle.parse_bracketed(text)
        for kind in _objects(trees):
            assert {value: len(ids) for value, ids in kind.items() if len(ids) > 1} == {}
        return trees

    def test_replicated_mini_corpus(self, data_dir):
        text = (data_dir / "mini.mrg").read_text(encoding="utf-8")
        trees = self.check(text * 3)
        _, _, leaves = _objects(trees)
        places = sum(1 for tree in trees for t in subtrees(tree) if t.token is not None)
        assert len(leaves) < places

    @settings(max_examples=100, deadline=None)
    @given(text=well_formed_texts(), copies=st.integers(1, 3))
    @example(text="(NP(DT the)(NN dog))\n(NP (DT the) (NN dog))(NP ( DT the ) (NN dog ))", copies=2)
    @example(text="((NN dog) NP) (NP dog) ( NP (NN dog)) (S (NN dog) (VP dog))", copies=1)
    def test_generated_forest(self, text, copies):
        self.check(" ".join([text] * copies))

    def test_nothing_is_shared_between_parses(self):
        (first,) = parse_bracketed("(NN dog)")
        (second,) = parse_bracketed("(NN dog)")
        assert first == second and first is not second


class TestReadTrees:
    TEXTS = [
        "(S (NP (DT the) (NN dog))\n   (VP (VBZ barks)))\n\n(S (NN cat))\n",
        "(S (NN dog))\n(S (NN cat))\n(S (NN cow) cat)\n",
        "(S (NN dog))\n\n(S\n(NN cat)))\n",
        "(S (NN dog))\n(S\n",
    ]

    @pytest.mark.parametrize("newline", ["\r", "\r\n", "\n"], ids=["cr", "crlf", "lf"])
    @pytest.mark.parametrize("text", TEXTS)
    def test_line_ends_are_translated(self, tmp_path, text, newline):
        # The file is read with newline translation, so offsets count one
        # character per line end, as in the translated text.
        path = tmp_path / "corpus.mrg"
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        got = _outcome(read_trees, TreeSyntaxError, path)
        assert got == _outcome(oracle.parse_bracketed, oracle.OracleSyntaxError, text)

    def test_bad_byte_is_reported_at_its_file_position(self, tmp_path):
        head = "(S (NN dog))\n" * 1000  # past the first 8 KiB
        path = tmp_path / "corpus.mrg"
        path.write_bytes(head.encode("utf-8") + b"(S (NN \xff))\n")
        with pytest.raises(UnicodeDecodeError) as err:
            read_trees(path)
        assert err.value.start == len(head) + len("(S (NN ")
        assert f"position {err.value.start}:" in str(err.value)


class TestErrors:
    def test_unbalanced_close(self):
        with pytest.raises(TreeSyntaxError) as err:
            parse_bracketed("(S (NN dog)))")
        assert "unexpected ')'" in str(err.value)

    def test_unclosed_open_reports_end_offset(self):
        text = "(S (NN dog)"
        with pytest.raises(TreeSyntaxError) as err:
            parse_bracketed(text)
        assert err.value.offset == len(text)

    def test_double_open_unbalanced_at_offset_two(self):
        with pytest.raises(TreeSyntaxError) as err:
            parse_bracketed("((")
        assert "unbalanced" in str(err.value)
        assert err.value.offset == 2

    def test_unlabeled_wrapper_is_empty_constituent(self):
        with pytest.raises(TreeSyntaxError, match="empty constituent") as err:
            parse_bracketed("((NN dog))")
        assert err.value.offset == 0

    def test_empty_constituent(self):
        with pytest.raises(TreeSyntaxError):
            parse_bracketed("(S ())")

    def test_token_outside_tree(self):
        with pytest.raises(TreeSyntaxError, match="outside"):
            parse_bracketed("dog")

    def test_multi_token_leaf(self):
        with pytest.raises(TreeSyntaxError, match="more than one token"):
            parse_bracketed("(NN dog cat)")

    def test_mixed_children_and_token(self):
        with pytest.raises(TreeSyntaxError):
            parse_bracketed("(NP (NN dog) stray)")

    @pytest.mark.parametrize(
        "tail", [")", "dog", "(NN dog cat)", "(S (NN dog) x)", "(X)", "(S (NN dog)", "dog)(NN"]
    )
    def test_errors_far_into_the_text(self, tail):
        # Past the first chunk of pieces, each error is still located where
        # the reference reader finds it.
        text = "(S (NP (NN dog)) (VP (VBZ barks)))\n" * 1000 + tail
        got = _outcome(parse_bracketed, TreeSyntaxError, text)
        assert got[0] == "error"
        assert got == _outcome(oracle.parse_bracketed, oracle.OracleSyntaxError, text)

    def test_labelled_bracket_without_content(self):
        with pytest.raises(TreeSyntaxError, match="empty constituent") as err:
            parse_bracketed("(S (X))")
        assert err.value.offset == 3


class TestBuilders:
    def test_node_and_leaf_helpers(self):
        tree = node("NP", leaf("DT", "the"), leaf("NN", "dog"))
        assert bracketed(tree) == "(NP (DT the) (NN dog))"

    def test_leaf_requires_token(self):
        with pytest.raises(ValueError):
            node("NP")

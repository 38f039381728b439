import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowbench import structures
from arrowbench.errors import InputError, ParseError, SignatureMismatch
from arrowbench.structures import (
    _canonical_search,
    _vertex_transitive,
    Signature,
    Structure,
    canonical_form,
    canonical_labeling,
    code_digest,
    embedding_maps,
    has_embedding,
    has_embedding_through,
    induced_substructure,
    is_embedding,
    parse_structure,
    relabel,
    serialize_structure,
)

from util import (
    GRAPH_SIG,
    brute_embeddings,
    brute_isomorphic,
    canonical_search_oracle,
    chain,
    cycle,
    graph,
    k_graph,
    path,
    pure_set,
    random_permutation,
    random_regular_graph,
    random_structure,
)


# ---------------------------------------------------------------------------
# parsing


def test_parse_k2():
    s = parse_structure("signature: edge/2\nsize: 2\nedge: (0,1) (1,0)")
    assert s == graph(2, [(0, 1)])


def test_parse_singleton_order_empty_relation():
    s = parse_structure("signature: lt/2\nsize: 1\nlt:")
    assert s.size == 1
    assert s.rel("lt") == ()


def test_parse_missing_signature_is_syntax_error():
    with pytest.raises(ParseError):
        parse_structure("size: 3")


def test_parse_size_zero_rejected():
    with pytest.raises(ParseError):
        parse_structure("signature: edge/2\nsize: 0\nedge:")


def test_parse_arity_mismatch():
    with pytest.raises(ParseError) as err:
        parse_structure("signature: edge/2\nsize: 2\nedge: (0,1,1)")
    assert "arity" in str(err.value)


def test_parse_vertex_out_of_range():
    with pytest.raises(ParseError):
        parse_structure("signature: edge/2\nsize: 2\nedge: (0,2)")


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as err:
        parse_structure("signature: edge/2\nsize: 2\nedge: nonsense")
    assert err.value.line == 3


def test_parse_comments_and_blanks():
    s = parse_structure("# a comment\n\nsignature: edge/2\nsize: 2\n# more\nedge: (0,1) (1,0)\n")
    assert s == graph(2, [(0, 1)])


def test_roundtrip_is_normalizing():
    text = "signature: edge/2\nsize: 3\nedge: (1,0) (0,1)\n# noise\n"
    normalized = serialize_structure(parse_structure(text))
    assert normalized == "signature: edge/2\nsize: 3\nedge: (0,1) (1,0)\n"
    assert serialize_structure(parse_structure(normalized)) == normalized


def test_roundtrip_random(seed=2024):
    rng = random.Random(seed)
    for _ in range(25):
        s = random_structure(rng)
        text = serialize_structure(s)
        assert parse_structure(text) == s
        assert serialize_structure(parse_structure(text)) == text


# ---------------------------------------------------------------------------
# induced substructures


def test_induced_k3_edge():
    assert induced_substructure(k_graph(3), {0, 1}) == graph(2, [(0, 1)])


def test_induced_path_endpoints_no_edge():
    # oracle: direct tuple filter of path 0-1-2 on {0, 2}
    got = induced_substructure(path(3), {0, 2})
    assert got == graph(2, [])


def test_induced_order_restriction():
    # oracle: restriction of the 5-chain order to {1,3,4} is a 3-chain
    got = induced_substructure(chain(5), {1, 3, 4})
    assert got == chain(3)


def test_induced_empty_rejected():
    with pytest.raises(InputError):
        induced_substructure(chain(3), set())


# ---------------------------------------------------------------------------
# is_embedding / embeddings


def test_identity_embedding():
    k2 = graph(2, [(0, 1)])
    assert is_embedding((0, 1), k2, k2)


def test_edge_onto_non_edge_fails():
    k2 = graph(2, [(0, 1)])
    assert not is_embedding((0, 2), k2, path(3))


def test_non_injective_fails():
    k2 = graph(2, [(0, 1)])
    assert not is_embedding((0, 0), k2, k_graph(3))


def test_out_of_range_fails():
    k2 = graph(2, [(0, 1)])
    assert not is_embedding((0, 5), k2, k_graph(3))


def test_point_into_pure_set():
    assert len(embedding_maps(pure_set(1), pure_set(3))) == 3


def test_chain_embeddings_are_binomial():
    assert len(embedding_maps(chain(2), chain(5))) == 10


def test_k2_into_p3():
    assert embedding_maps(graph(2, [(0, 1)]), path(3)) == [
        (0, 1), (1, 0), (1, 2), (2, 1)]


def test_embeddings_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        embedding_maps(pure_set(1), chain(2))


def test_embedding_counts_formulas():
    # falling factorial for pure sets, binomial for linear orders, up to 7
    for na in range(1, 4):
        for nb in range(na, 8):
            ff = 1
            for i in range(na):
                ff *= nb - i
            assert len(embedding_maps(pure_set(na), pure_set(nb))) == ff
            binom = ff
            for i in range(2, na + 1):
                binom //= i
            assert len(embedding_maps(chain(na), chain(nb))) == binom


def test_embeddings_match_brute_force(seed=99):
    rng = random.Random(seed)
    for _ in range(40):
        a = random_structure(rng, max_size=4)
        b = random_structure(rng, max_size=7)
        assert embedding_maps(a, b) == brute_embeddings(a, b)


def test_ternary_signature_embeddings(seed=5):
    # generic kernel path (arity 3) against the brute-force filter
    sig = Signature((("r", 3),))
    rng = random.Random(seed)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = rng.randint(n, 5)
        a = Structure.make(sig, n, {"r": [t for t in
                                          __import__("itertools").product(range(n), repeat=3)
                                          if rng.random() < 0.3]})
        b = Structure.make(sig, m, {"r": [t for t in
                                          __import__("itertools").product(range(m), repeat=3)
                                          if rng.random() < 0.3]})
        assert embedding_maps(a, b) == brute_embeddings(a, b)


_BINARY_SIG = Signature((("p", 1), ("e", 2)))
_TERNARY_SIG = Signature((("p", 1), ("e", 2), ("t", 3)))


@st.composite
def _structure(draw, sig, max_size):
    n = draw(st.integers(1, max_size))
    vertex = st.integers(0, n - 1)
    return Structure(sig, n, tuple(
        tuple(draw(st.lists(st.tuples(*[vertex] * arity), max_size=2 * n)))
        for _, arity in sig.symbols))


@st.composite
def _structure_pair(draw):
    """(A, B) over a signature with arities <= 2 (binary kernel) or up to 3
    (generic kernel); A is often a relabeled induced substructure of B, so
    that embeddings exist and partial maps must backtrack."""
    sig = draw(st.sampled_from((_BINARY_SIG, _TERNARY_SIG)))
    b = draw(_structure(sig, 6))
    if draw(st.booleans()):
        return draw(_structure(sig, 4)), b
    verts = draw(st.lists(st.integers(0, b.size - 1), min_size=1, max_size=4, unique=True))
    sub = induced_substructure(b, verts)
    return relabel(sub, draw(st.permutations(range(sub.size)))), b


@settings(max_examples=300, deadline=None)
@given(_structure_pair(), st.data())
def test_kernels_match_brute_force_in_order_and_first_only(pair, data):
    a, b = pair
    want = brute_embeddings(a, b)
    got = embedding_maps(a, b)
    assert got == want
    assert got == sorted(got)
    assert has_embedding(a, b) == bool(want)
    assert embedding_maps(a, b, first_only=True) == want[:1]
    # rooted: source vertex 0 tries only `roots`, given in any order
    roots = data.draw(st.lists(st.integers(0, b.size - 1), unique=True))
    rooted = [m for m in want if m[0] in roots]
    assert embedding_maps(a, b, roots=roots) == rooted
    assert embedding_maps(a, b, first_only=True, roots=roots) == rooted[:1]


@settings(max_examples=300, deadline=None)
@given(_structure_pair(), st.data())
def test_has_embedding_through_matches_brute_force(pair, data):
    a, b = pair
    want = brute_embeddings(a, b)
    autos = brute_embeddings(a, a)
    assert _vertex_transitive(a) == ({m[0] for m in autos} == set(range(a.size)))
    # precondition: every copy of `a` in `b` uses a root; extend a drawn
    # set by one vertex (drawn) of each copy that misses it
    roots = set(data.draw(st.lists(st.integers(0, b.size - 1), unique=True)))
    for m in want:
        if roots.isdisjoint(m):
            roots.add(m[data.draw(st.integers(0, a.size - 1))])
    assert has_embedding_through(a, b, roots) == bool(want)


# ---------------------------------------------------------------------------
# canonical forms


def test_c4_relabelings_share_code():
    import itertools

    base = canonical_form(cycle(4))
    for perm in itertools.permutations(range(4)):
        assert canonical_form(relabel(cycle(4), perm)) == base


def test_p3_k3_distinct():
    assert canonical_form(path(3)) != canonical_form(k_graph(3))


def test_three_vertex_graph_types():
    # oracle: pairwise exhaustive isomorphism over all labeled graphs on 3 vertices
    import itertools

    labeled = []
    pairs = [(0, 1), (0, 2), (1, 2)]
    for bits in itertools.product((0, 1), repeat=3):
        labeled.append(graph(3, [p for p, b in zip(pairs, bits) if b]))
    classes = []
    for s in labeled:
        if not any(brute_isomorphic(s, t) for t in classes):
            classes.append(s)
    assert len(classes) == 4
    assert len({canonical_form(s) for s in labeled}) == 4


def test_canonical_agrees_with_brute_isomorphism(seed=31):
    rng = random.Random(seed)
    pool = [random_structure(rng, max_size=4) for _ in range(18)]
    for s in pool:
        for t in pool:
            if s.signature != t.signature:
                continue
            assert (canonical_form(s) == canonical_form(t)) == brute_isomorphic(s, t)


def test_relabeling_invariance_random(seed=11):
    rng = random.Random(seed)
    for _ in range(50):
        s = random_structure(rng)
        base = canonical_form(s)
        for _ in range(4):
            perm = random_permutation(rng, s.size)
            assert canonical_form(relabel(s, perm)) == base


def test_code_digest_stable():
    assert code_digest(canonical_form(cycle(4))) == code_digest(canonical_form(cycle(4)))


_UNARY_SIG = Signature((("p", 1), ("q", 1)))


@st.composite
def _regular_graph(draw):
    d = draw(st.sampled_from((3, 4)))
    n = draw(st.integers(d + 1, 11))
    n += n * d % 2
    return random_regular_graph(draw(st.randoms(use_true_random=False)), n, d)


@st.composite
def _canonical_input(draw):
    """A structure over a unary, binary or ternary signature, or a random 3-
    or 4-regular graph, under a random relabeling.  The regular graphs
    matter: their least leaf is often not the first one the search meets,
    so only they show a subtree skipped that held it."""
    s = draw(st.one_of(
        _structure(_UNARY_SIG, 8), _structure(_BINARY_SIG, 7),
        _structure(_TERNARY_SIG, 5), _regular_graph()))
    return relabel(s, draw(st.permutations(range(s.size))))


@settings(max_examples=300, deadline=None)
@given(_canonical_input())
def test_canonical_search_matches_unpruned_search(s):
    # same code and same labeling: codes reach reports, certificates and
    # cache keys, and the labeling is the first least leaf of the full tree
    key = s.signature.key()
    assert _canonical_search(s, key)[:2] == canonical_search_oracle(s, key)


def test_complete_graph_search_skips_repeated_subtrees(monkeypatch):
    # one _encode_labeled call per leaf; the full search tree of K9 has
    # 9! = 362,880 leaves, so stop early
    calls = []
    encode = structures._encode_labeled

    def spy(*args):
        calls.append(args)
        if len(calls) >= 100:
            raise AssertionError("canonical search of K9 encoded 100 leaves")
        return encode(*args)

    monkeypatch.setattr(structures, "_encode_labeled", spy)
    canonical_labeling(k_graph(9))
    assert len(calls) < 100


def test_reserved_symbol_names_rejected():
    with pytest.raises(InputError):
        Signature((("size", 2),))
    with pytest.raises(InputError):
        Signature((("signature", 1),))


def test_structure_validation():
    with pytest.raises(InputError):
        Structure(GRAPH_SIG, 0, ((),))
    with pytest.raises(InputError):
        Structure(GRAPH_SIG, 2, (((0, 5),),))
    with pytest.raises(InputError):
        Structure(GRAPH_SIG, 2, (((0,),),))

from hypothesis import given, settings
from hypothesis import strategies as st

from opinionchain.features.stemmer import stem

# classic algorithm outputs, traced rule by rule; several exercise
# multi-step chains (generalization runs through steps 2, 3, and 4)
KNOWN_PAIRS = [
    # plural handling
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    # -ed / -ing
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    # y -> i
    ("happy", "happi"),
    ("sky", "sky"),
    # derivational suffixes
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologous", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("generalization", "gener"),
    ("oscillators", "oscil"),
    ("cement", "cement"),
    # final e and double l
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
    # review-domain words relied on elsewhere in the test suite
    ("movie", "movi"),
    ("movies", "movi"),
]


def test_known_pairs():
    failures = [
        (word, want, stem(word)) for word, want in KNOWN_PAIRS if stem(word) != want
    ]
    assert not failures, failures


def test_short_words_unchanged():
    for word in ("a", "is", "be", "tv", "ox"):
        assert stem(word) == word


def test_case_folded():
    assert stem("Movies") == "movi"
    assert stem("GREAT") == "great"


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz'-", min_size=0, max_size=15))
def test_never_grows_and_never_crashes(word):
    out = stem(word)
    assert len(out) <= max(len(word), 1) + 1  # only growth: +e restorations
    assert stem(out.lower()) == stem(out.lower())


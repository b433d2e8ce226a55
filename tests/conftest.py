import pytest

from whitney.corpus import load_corpus, load_map_suite


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion, outside pytest's capture."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
from whitney.simplicial import barycentric_subdivision

# The bundled spaces that are not Euler spaces, as documented in README; every
# other bundled space is one, and every bundled space is pure-dimensional.
NON_EULER_SPACES = {"interval", "path", "delta2", "cone_s1_3", "bowtie"}


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def map_suite():
    return load_map_suite()


@pytest.fixture(scope="session")
def subdivisions(corpus):
    return {name: barycentric_subdivision(e.complex) for name, e in corpus.items()}


@pytest.fixture(scope="session")
def rp2(corpus):
    return corpus["rp2_6"].complex


@pytest.fixture(scope="session")
def circle(corpus):
    return corpus["s1_3"].complex


@pytest.fixture(scope="session")
def sphere(corpus):
    return corpus["boundary_delta3"].complex

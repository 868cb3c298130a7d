from hypothesis import given, settings
from hypothesis import strategies as st

from msss.linepoly import interpolate_line, line_at

from oracles import brute_line_search

PRIMES = [11, 97, 149, 257]


@st.composite
def lines(draw):
    """(m, secret, slope) with the secret and the slope reduced mod m."""
    m = draw(st.sampled_from(PRIMES))
    return m, draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))


class TestEval:
    def test_worked_values(self):
        assert line_at(100, 5, 1, 149) == 105
        assert line_at(100, 5, 7, 149) == 135

    def test_x_zero_gives_the_secret(self):
        assert line_at(42, 17, 0, 97) == 42

    @given(lines(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_oracle(self, line, data):
        m, secret, slope = line
        x1 = data.draw(st.integers(0, m - 1))
        x2 = data.draw(st.integers(0, m - 1).filter(lambda x: x != x1))
        y1, y2 = line_at(secret, slope, x1, m), line_at(secret, slope, x2, m)
        assert brute_line_search(x1, y1, x2, y2, m) == [(secret, slope)]


class TestInterpolate:
    def test_worked_example(self):
        assert interpolate_line(105, 7, 135, 149) == 100
        assert brute_line_search(1, 105, 7, 135, 149) == [(100, 5)]

    @given(lines())
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, line):
        m, secret, slope = line
        f1 = line_at(secret, slope, 1, m)
        for d in range(2, m):
            assert interpolate_line(f1, d, line_at(secret, slope, d, m), m) == secret

    @given(lines(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_affine_difference(self, line, data):
        m, secret, slope = line
        x1, x2 = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
        difference = line_at(secret, slope, x1, m) - line_at(secret, slope, x2, m)
        assert difference % m == slope * (x1 - x2) % m


def test_exhaustive_oracle_equivalence_small_field():
    """Every line over Z_11 at every d in [2, 10], against the exhaustive
    search: line_at gives the points, interpolate_line the secret."""
    m = 11
    for secret in range(m):
        for slope in range(m):
            f1 = line_at(secret, slope, 1, m)
            for d in range(2, m):
                y = line_at(secret, slope, d, m)
                assert brute_line_search(1, f1, d, y, m) == [(secret, slope)]
                assert interpolate_line(f1, d, y, m) == secret

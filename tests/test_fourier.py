"""Transform pair and sample-expansion tests."""

import cmath
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from cfsm import CandidateSignal, MagnitudeMatrix, SignalSample, dft, expand_sample, idft
from cfsm.cfmatrix import TWO_PI, ComplexFuzzyNumber, wrap_phase
from cfsm.oracle import naive_dft, naive_idft

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
complexes = st.builds(complex, finite, finite)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def sequences(size):
    return st.lists(complexes, min_size=size, max_size=size)


# -- transform pair -----------------------------------------------------------


def test_impulse_has_flat_spectrum():
    assert dft([1, 0, 0, 0]) == [1 + 0j] * 4


def test_constant_sequence_is_pure_dc():
    c = 0.3 + 0.4j
    out = dft([c] * 8)
    assert out[0] == pytest.approx(8 * c, abs=1e-12)
    for value in out[1:]:
        assert abs(value) == pytest.approx(0.0, abs=1e-12)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        dft([])
    with pytest.raises(ValueError):
        idft([])


def test_dft_matches_reversed_order_literal_sum():
    rng = random.Random(11)
    xs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(8)]
    out = dft(xs)
    for k in range(8):
        acc = 0j
        for t in reversed(range(8)):
            acc += xs[t] * cmath.exp(-2j * math.pi * k * t / 8)
        assert abs(out[k] - acc) <= 1e-9


def test_dc_only_spectrum_inverts_to_ones():
    assert idft([4, 0, 0, 0]) == pytest.approx([1 + 0j] * 4, abs=1e-12)


def test_two_point_inverse_at_sample_zero():
    # (0.7 + 0.4) / 2
    assert idft([0.7, 0.4])[0] == pytest.approx(0.55 + 0j, abs=1e-12)


@pytest.mark.parametrize("size", [1, 2, 4, 8, 16, 64])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_transform_round_trips(size, data):
    xs = data.draw(sequences(size))
    back = idft(dft(xs))
    forth = dft(idft(xs))
    for x, y, z in zip(xs, back, forth):
        assert abs(x - y) <= 1e-9
        assert abs(x - z) <= 1e-9


@pytest.mark.parametrize("size", [1, 2, 4, 8, 16, 64])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_energy_matches_across_domains(size, data):
    xs = data.draw(sequences(size))
    spectrum = dft(xs)
    time_energy = sum(abs(x) ** 2 for x in xs)
    freq_energy = sum(abs(v) ** 2 for v in spectrum) / size
    assert abs(time_energy - freq_energy) <= 1e-9


# primes, prime powers and mixed composites all take the same recursion
ORACLE_SIZES = list(range(1, 49)) + [97, 128, 210, 256]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORACLE_SIZES).flatmap(sequences))
def test_transform_pair_matches_the_literal_sums(xs):
    for fast, slow in ((dft, naive_dft), (idft, naive_idft)):
        for got, want in zip(fast(xs), slow(xs), strict=True):
            assert abs(got - want) <= 1e-9


@pytest.mark.parametrize("size", [1, 2, 7, 12, 97, 256])
def test_transform_pair_evaluates_one_exponential_per_root(size, monkeypatch):
    calls = []
    exp = cmath.exp

    def counting(z):
        calls.append(z)
        return exp(z)

    monkeypatch.setattr("cfsm.fourier.cmath.exp", counting)
    xs = [complex(t % 5, -t % 3) for t in range(size)]
    dft(xs)
    assert len(calls) <= size
    calls.clear()
    idft(xs)
    assert len(calls) <= size


def test_prime_length_transform_keeps_memory_linear():
    # a prime length is one p = n split; its n twiddled terms must not all
    # be held at once, which would take n*n list slots (about 2 MiB here)
    xs = [complex(t % 7, t % 3) for t in range(509)]
    tracemalloc.start()
    try:
        dft(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


# -- sample expansion -----------------------------------------------------------


def test_expand_sample_worked_examples():
    sample = expand_sample([1.0, 0.3], 1, 2)
    assert sample.terms == (
        ComplexFuzzyNumber(1.0, 0.0),
        ComplexFuzzyNumber(0.3, math.pi),
    )
    sample = expand_sample([0.6, 0.5], 1, 2)
    assert sample.terms == (
        ComplexFuzzyNumber(0.6, 0.0),
        ComplexFuzzyNumber(0.5, math.pi),
    )


def test_sample_zero_has_all_zero_phases():
    sample = expand_sample([0.2, 0.9, 0.4, 0.7], 0, 4)
    assert all(term.phase == 0.0 for term in sample.terms)


def test_expand_sample_argument_errors():
    with pytest.raises(ValueError):
        expand_sample([0.1, 0.2], 2, 2)
    with pytest.raises(ValueError):
        expand_sample([0.1, 0.2], -1, 2)
    with pytest.raises(ValueError):
        expand_sample([0.1, 0.2, 0.3], 0, 2)
    with pytest.raises(ValueError):
        expand_sample([0.1, 1.5], 0, 2)


@given(
    st.integers(1, 16).flatmap(
        lambda n: st.tuples(
            st.lists(unit, min_size=n, max_size=n), st.integers(0, n - 1)
        )
    )
)
def test_expanded_phases_are_the_derived_multiples(case):
    amplitudes, index = case
    big_n = len(amplitudes)
    sample = expand_sample(amplitudes, index, big_n)
    for k, term in enumerate(sample.terms):
        assert term.phase == wrap_phase(TWO_PI * k * index / big_n)


def test_sample_value_worked_examples():
    sample = SignalSample(
        1, (ComplexFuzzyNumber(1.0, 0.0), ComplexFuzzyNumber(0.3, math.pi))
    )
    assert sample.value() == pytest.approx(0.35 + 0j, abs=1e-12)
    zero = SignalSample(0, (ComplexFuzzyNumber(0.0, 0.0), ComplexFuzzyNumber(0.0, 1.0)))
    assert zero.value() == pytest.approx(0j, abs=1e-12)
    flat = SignalSample(0, (ComplexFuzzyNumber(0.7, 0.0), ComplexFuzzyNumber(0.4, 0.0)))
    assert flat.value() == pytest.approx(0.55 + 0j, abs=1e-12)


@pytest.mark.parametrize("size", [1, 2, 4, 8, 16, 64])
def test_expanded_samples_evaluate_to_the_inverse_transform(size):
    rng = random.Random(size)
    spectrum = [rng.random() for _ in range(size)]
    inverse = idft(spectrum)
    for n in range(size):
        value = expand_sample(spectrum, n, size).value()
        assert abs(value - inverse[n]) <= 1e-12


# -- containers ------------------------------------------------------------------


def test_signal_sample_invariants():
    with pytest.raises(ValueError):
        SignalSample(0, ())
    with pytest.raises(ValueError):
        SignalSample(2, (ComplexFuzzyNumber(0.1), ComplexFuzzyNumber(0.2)))


def test_candidate_signal_invariants():
    with pytest.raises(ValueError):  # no samples
        CandidateSignal.from_amplitudes("x", [])
    with pytest.raises(ValueError):  # term count differs from sample count
        CandidateSignal.from_amplitudes("x", [[0.1, 0.2]])
    with pytest.raises(ValueError):  # non-square grid through the constructor
        CandidateSignal("x", MagnitudeMatrix.from_rows([[0.1, 0.2]]))
    with pytest.raises(ValueError):  # ragged rows
        CandidateSignal.from_amplitudes("x", [[0.1, 0.2], [0.3]])
    with pytest.raises(ValueError):  # amplitude outside [0, 1]
        CandidateSignal.from_amplitudes("x", [[0.1, 1.5], [0.2, 0.3]])


def test_candidate_signal_from_amplitudes():
    signal = CandidateSignal.from_amplitudes("x1", golden.X1_AMPLITUDES)
    assert signal.big_n == 2
    assert [t.amplitude for t in signal.samples[0].terms] == [0.7, 0.4]
    assert [t.phase for t in signal.samples[1].terms] == [0.0, math.pi]

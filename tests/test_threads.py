"""Equal problems solved from several threads give the single-thread bits.

Equal ``KBesselParams`` and ``KineticProblem`` instances share one t-free
table per value, so threads grow and read the same tables.  The first two
tests park one thread inside a table's growth and run a second thread on
an equal instance meanwhile; the last two interleave four threads at a
short switch interval, on points and on grids.  The last has four threads
solve the Volterra oracle at two rates on one grid, whose weights keep one
rate's inverse.
"""

import sys
import threading
import time

import numpy as np
import pytest

from kkinetics import (KineticProblem, QuadratureGrid, Theorem, gen_k_bessel, solve_grid,
                       solve_point, solve_volterra, specfun)
from kkinetics.figures import figure_params
from kkinetics.specfun import k_bessel_log_error

# How long a parked thread waits for the other: with the growth serialised
# the other waits for it instead, and it goes on when this runs out.
PARK_SECONDS = 0.5


def _problem(variant=Theorem.T2):
    """A fresh instance of the problem at nu = 0.5, n0 = d = 1 and the figure parameters at
    lambda = 1: a power table for variant 2, a two-dimensional one for variant 1."""
    return KineticProblem(n0=1.0, d=1.0, nu=0.5, variant=variant, params=figure_params(1.0))


def _answer(call):
    """``call()`` as a tuple, or the type and message of the exception it raised."""
    try:
        return tuple(call())
    except Exception as exc:  # a thread must not lose what it raised
        return type(exc), str(exc)


def _park_at(module, name, n, monkeypatch):
    """Patch ``module.name`` so that its first call at index ``n`` waits, up to
    PARK_SECONDS, for the returned ``release`` event; ``parked`` is set then."""
    real, parked, release = getattr(module, name), threading.Event(), threading.Event()

    def patched(params, index):
        if index == n and not parked.is_set():
            parked.set()
            release.wait(PARK_SECONDS)
        return real(params, index)

    monkeypatch.setattr(module, name, patched)
    return parked, release


def _parked_and_other(first, second, parked, release):
    """Run ``first`` in a thread until it parks, then ``second`` in another,
    which releases the first when it is done; both answers."""
    answers = {}

    def run(key, call, done=None):
        answers[key] = _answer(call)
        if done is not None:
            done.set()

    a = threading.Thread(target=run, args=("a", first), daemon=True)
    a.start()
    assert parked.wait(5.0)
    b = threading.Thread(target=run, args=("b", second, release), daemon=True)
    b.start()
    for thread in (a, b):
        thread.join(10.0)
        assert not thread.is_alive()
    return answers["a"], answers["b"]


@pytest.fixture
def fast_switching():
    """A switch interval of 1 us for the test, restored afterwards."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def test_power_table_grown_by_two_threads_gives_the_single_thread_bits(
        empty_registries, monkeypatch):
    # without an order on growth the second thread extended the table from
    # the state the parked one had not yet stored, and the parked one then
    # appended after it: it returned 0.0444712... with other bits, or raised
    want = solve_point(_problem(), 9.0)
    empty_registries()
    parked, release = _park_at(specfun, "k_bessel_log_coefficient", 20, monkeypatch)
    got = _parked_and_other(lambda: solve_point(_problem(), 9.0),
                            lambda: solve_point(_problem(), 9.0), parked, release)
    assert got == (tuple(want), tuple(want))


def test_error_list_extended_by_two_threads_gives_the_single_thread_bits(
        empty_registries, monkeypatch):
    # the parked thread appended the bound of term 20 after those the other
    # appended meanwhile, at the wrong index of the shared list
    params = figure_params(1.0)
    want = gen_k_bessel(params, 5.0)
    assert want.terms > 21
    empty_registries()
    parked, release = _park_at(specfun, "k_bessel_log_error", 20, monkeypatch)
    got = _parked_and_other(lambda: gen_k_bessel(figure_params(1.0), 5.0),
                            lambda: gen_k_bessel(figure_params(1.0), 5.0), parked, release)
    assert got == (tuple(want), tuple(want))
    errors = figure_params(1.0)._table.log_errors
    assert errors == [k_bessel_log_error(params, n) for n in range(len(errors))]


@pytest.mark.parametrize("variant", [Theorem.T2, Theorem.T1], ids=["variant2", "variant1"])
def test_threads_solving_equal_problems_agree_with_one_thread(variant, empty_registries,
                                                              fast_switching):
    # four threads build an equal problem for every call, two going up in t
    # and two down, on emptied registries; the trials stop after 2 s.  Before
    # growth was serialised most runs gave wrong values, wrong refusals or
    # bare IndexErrors, and a thread could loop without end.
    times = np.sort(np.random.default_rng(14).uniform(0.05, 9.95, 199)).tolist()
    # variant 1 is refused for cancellation from t = 9.05 on, in every thread
    want = {t: _answer(lambda: solve_point(_problem(variant), t)) for t in times}
    deadline, trials, wrong = time.monotonic() + 2.0, 0, []
    while trials < 20 and time.monotonic() < deadline:
        empty_registries()
        answers, start = [None] * 4, threading.Barrier(4)

        def run(i):
            order = times if i % 2 == 0 else times[::-1]
            start.wait(5.0)
            answers[i] = [(t, _answer(lambda: solve_point(_problem(variant), t))) for t in order]

        threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()
        trials += 1
        wrong += [(t, got) for part in answers for t, got in part if got != want[t]]
    assert trials >= 1 and not wrong, (trials, wrong[:5])


def _grid_answer(end):
    table = solve_grid(_problem(), np.linspace(0.0, end, 41))
    return table.values.tobytes(), table.terms, table.tails.tobytes()


def test_threads_solving_equal_grids_agree_with_one_thread(empty_registries, fast_switching):
    # the batch reads a table's columns and stop bounds as arrays that its
    # growth replaces whole; four threads on emptied registries, two taking
    # grids that reach further each call and two the other way, grow the
    # shared table while the others read it; the trials stop after 2 s
    ends = np.linspace(0.5, 9.5, 19).tolist()
    want = {end: _answer(lambda: _grid_answer(end)) for end in ends}
    deadline, trials, wrong = time.monotonic() + 2.0, 0, []
    while trials < 20 and time.monotonic() < deadline:
        empty_registries()
        answers, start = [None] * 4, threading.Barrier(4)

        def run(i):
            order = ends if i % 2 == 0 else ends[::-1]
            start.wait(5.0)
            answers[i] = [(end, _answer(lambda: _grid_answer(end))) for end in order]

        threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()
        trials += 1
        wrong += [(end, got) for part in answers for end, got in part if got != want[end]]
    assert trials >= 1 and not wrong, (trials, wrong[:5])


def _oracle_answer(rate, grid):
    return solve_volterra(1.5, lambda t: 1.0 + t, rate, grid).values.tobytes()


def test_threads_solving_two_rates_on_one_grid_agree_with_one_thread(empty_registries,
                                                                     fast_switching):
    # the grid's weights keep the last rate's inverse; four threads, two on
    # each rate, replace and read it in turn for many rounds, and every solve
    # must give the cold bits; the rounds stop after 2 s
    rates = (1.3, 0.7)
    want = {}
    for rate in rates:
        empty_registries()
        want[rate] = _oracle_answer(rate, QuadratureGrid(2.0, 4096, 0.5))
    empty_registries()
    grid = QuadratureGrid(2.0, 4096, 0.5)
    deadline, rounds, wrong = time.monotonic() + 2.0, {}, []
    start = threading.Barrier(4)

    def run(i, rate):
        start.wait(5.0)
        done = 0
        while done < 100 and time.monotonic() < deadline:
            got = _answer(lambda: (_oracle_answer(rate, grid),))
            if got != (want[rate],):
                wrong.append((rate, got))
            done += 1
        rounds[i] = done

    threads = [threading.Thread(target=run, args=(i, rates[i % 2]), daemon=True)
               for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10.0)
        assert not thread.is_alive()
    assert len(rounds) == 4 and min(rounds.values()) >= 1 and not wrong, (rounds, wrong[:2])

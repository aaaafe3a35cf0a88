"""Property test of the command line over arbitrary model, spec and grid input.

Every invocation must end in one of two ways: exit 0 with only finite numbers
on stdout, or exit 2 with nothing on stdout.  Exit 1 ("internal error") is a
bug whatever the input.
"""

import contextlib
import io
import json
import math
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chaosrates.cli import main

EXTREME = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e200, 1e-200, 5e-324, 0.0, -0.0, -1.0, 10**30]
)
WRONG_TYPE = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just([]), st.just({}))


def usually(typical, *rare):
    """typical nine times in ten, else one of the rare strategies."""
    return st.sampled_from([typical] * 9 + [st.one_of(*rare)]).flatmap(lambda strategy: strategy)


def field(typical):
    """Mostly a plausible value, sometimes an extreme number or a wrong type."""
    return usually(typical, EXTREME, WRONG_TYPE)


def increasing(lo, hi, min_size=1, max_size=4):
    return st.lists(st.floats(lo, hi), min_size=min_size, max_size=max_size, unique=True).map(sorted)


def number_list(lo, hi, min_size=1, max_size=4):
    """Mostly increasing numbers, else a list with odd entries or no list at all."""
    return usually(
        increasing(lo, hi, min_size, max_size),
        st.lists(field(st.floats(-1.0, hi)), min_size=min_size, max_size=max_size),
        WRONG_TYPE,
    )


@st.composite
def atoms(draw):
    times = draw(number_list(0.1, 12.0, 2, 5))
    size = len(times) if isinstance(times, list) else 2
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
    weights = draw(usually(st.just([w / sum(raw) for w in raw]), st.lists(field(st.floats(0.0, 1.0)), max_size=5)))
    return {"family": "atoms", "times": times, "weights": weights}


@st.composite
def piecewise(draw):
    breaks = draw(number_list(0.2, 20.0))
    size = len(breaks) if isinstance(breaks, list) else 2
    values = draw(usually(st.lists(st.floats(0.0, 2.0), min_size=size, max_size=size), number_list(0.0, 2.0)))
    return {"family": "piecewise", "breaks": breaks, "values": values}


STRUCTURE_FUNCTION = usually(
    st.one_of(
        st.fixed_dictionaries({"family": st.just("exponential"), "lambda": field(st.floats(0.02, 3.0))}),
        piecewise(),
        atoms(),
    ),
    st.fixed_dictionaries({"family": field(st.just("exponential"))}),
    WRONG_TYPE,
)
ORDER = usually(st.integers(1, 6), EXTREME, WRONG_TYPE, st.sampled_from([0, 20, 21, 2.5]))
COHERENT = st.fixed_dictionaries({"n": ORDER, "sf": STRUCTURE_FUNCTION})
TERM = st.fixed_dictionaries({"c": field(st.floats(-1.5, 1.5)), "n": ORDER, "sf": STRUCTURE_FUNCTION})
INCOHERENT = st.fixed_dictionaries({"terms": usually(st.lists(TERM, min_size=1, max_size=3), WRONG_TYPE)})
MODEL = usually(st.one_of(COHERENT, INCOHERENT), WRONG_TYPE)

CALL = increasing(0.0, 10.0, 2, 2).flatmap(
    lambda dates: st.fixed_dictionaries(
        {
            "option_maturity": field(st.just(dates[0])),
            "bond_maturity": field(st.just(dates[1])),
            "strike": field(st.floats(0.0, 1.2)),
        }
    )
)
SWAPTION = st.fixed_dictionaries(
    {
        "option_maturity": field(st.floats(0.0, 1.0)),
        "payment_dates": number_list(1.0, 10.0),
        "strike": field(st.floats(0.0, 0.2)),
    }
)
GRID = usually(
    st.tuples(increasing(0.0, 30.0, 2, 2), st.integers(1, 8)).map(lambda g: f"{g[0][0]!r}:{g[0][1]!r}:{g[1]}"),
    st.lists(st.sampled_from(["0", "1", "inf", "-inf", "nan", "1e308", "-1", "x", "", "2.5"]), min_size=3, max_size=3).map(
        ":".join
    ),
    st.text(max_size=6),
)


def as_json(value, draw):
    """The value as JSON, now and then with some keys of an object dropped."""
    if isinstance(value, dict) and value and draw(usually(st.just(False), st.just(True))):
        gone = draw(st.sets(st.sampled_from(sorted(value)), min_size=1))
        value = {k: v for k, v in value.items() if k not in gone}
    return json.dumps(value)  # NaN and Infinity tokens are accepted by the reader


@st.composite
def invocation(draw):
    model = as_json(draw(MODEL), draw)
    command = draw(st.sampled_from(["curve", "call", "swaption", "simulate"]))
    if command == "curve":
        grid = draw(st.none() | GRID)
        return ["curve", "--model", model] + ([] if grid is None else ["--grid", grid])
    if command == "simulate":
        return ["simulate", "--model", model, "--paths", draw(st.sampled_from(["2", "0", "-1"])), "--seed", "1"]
    spec = as_json(draw(CALL if command == "call" else SWAPTION), draw)
    method = draw(st.sampled_from(["analytic", "mc", "quadrature"]))
    samples = draw(usually(st.just("200"), st.sampled_from(["2", "1", "0", "-5"])))
    return ["price", command, "--model", model, "--spec", spec, "--method", method, "--samples", samples]


def assert_finite_output(argv, out):
    if argv[0] == "curve":
        lines = out.splitlines()
        assert lines[0] == "maturity,price"
        for line in lines[1:]:
            assert all(math.isfinite(float(x)) for x in line.split(",")), line
        return

    def reject(token):
        raise AssertionError(f"non-finite JSON number {token}")

    payload = json.loads(out, parse_constant=reject)
    for key in ("price", "stderr"):
        if key in payload:
            assert math.isfinite(payload[key])


@given(invocation())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_exits_0_with_finite_output_or_2_with_none(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out_dir:
        if argv[0] == "simulate":
            argv = argv + ["--out", out_dir]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    out = stdout.getvalue()
    assert code in (0, 2), (argv, stderr.getvalue())
    if code == 2:
        assert out == ""
    else:
        assert_finite_output(argv, out)

import math
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censored_evi import BetaDist, Family, GPD, Method, ReverseBurr
from censored_evi.config import RunConfig, config_text, parse_config

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

MINIMAL = """\
dist_x = revburr(1,1,1,10)
dist_c = revburr(10,0.6666666666666666,1,10)
n = 500
reps = 200
seed = 2014
k_min = 50
k_max = 250
"""

FULL = """\
# simulation sweep
dist_x = gpd(-0.5,1)

dist_c = gpd(-0.25,0.5)
n=400
reps = 100
seed = 7
k_min = 10
k_max = 90
k_step = 20
alpha = 1,2.5
families = type1,mom
methods = km,efg
out = sweep.csv
"""


class TestParse:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.dist_x == ReverseBurr(1, 1, 1, 10)
        assert cfg.dist_c == ReverseBurr(10, 0.6666666666666666, 1, 10)
        assert (cfg.n, cfg.reps, cfg.seed) == (500, 200, 2014)
        assert (cfg.k_min, cfg.k_max, cfg.k_step) == (50, 250, 1)
        assert cfg.alphas == (2.0,)
        assert cfg.families == (Family.MOMENT, Family.TYPE1, Family.TYPE2)
        assert cfg.methods == (Method.KM, Method.LEURGANS, Method.EFG)
        assert cfg.out is None

    def test_full_with_comments_and_loose_spacing(self):
        cfg = parse_config(FULL)
        assert cfg.dist_x == GPD(-0.5, 1)
        assert cfg.n == 400
        assert cfg.k_step == 20
        assert cfg.alphas == (1.0, 2.5)
        assert cfg.families == (Family.TYPE1, Family.MOMENT)
        assert cfg.methods == (Method.KM, Method.EFG)
        assert cfg.out == "sweep.csv"

    @pytest.mark.parametrize("text", [MINIMAL, FULL])
    def test_round_trip(self, text):
        cfg = parse_config(text)
        assert parse_config(config_text(cfg)) == cfg

    def test_canonical_text_of_figure1(self):
        # the canonical bytes of a shipped config
        cfg = parse_config((SCRIPTS / "figure1.cfg").read_text())
        assert config_text(cfg) == (
            "dist_x = revburr(1.0,1.0,1.0,10.0)\n"
            "dist_c = revburr(10.0,0.6666666666666666,1.0,10.0)\n"
            "n = 500\n"
            "reps = 2000\n"
            "seed = 101\n"
            "k_min = 10\n"
            "k_max = 400\n"
            "k_step = 10\n"
            "alpha = 2.0\n"
            "families = type1\n"
            "methods = km,l,efg\n"
        )


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0, exclude_min=True, allow_infinity=False)
LAWS = st.one_of(
    st.builds(ReverseBurr, POSITIVE, POSITIVE, POSITIVE, FINITE),
    st.builds(GPD, st.floats(max_value=0, exclude_max=True, allow_infinity=False), POSITIVE),
    st.builds(BetaDist, POSITIVE, POSITIVE),
)
# Any floats, repeats included: alphas below 1, not finite or repeated,
# and repeated families or methods, are errors of the constructor.
ALPHAS = st.lists(st.floats(min_value=1, allow_infinity=False) | st.floats(), min_size=1,
                  max_size=4)


@st.composite
def run_configs(draw):
    """Keyword arguments of a RunConfig over every key's range, some of
    them invalid (a k range the wrong way round, an ``out`` that would not
    read back, an alpha below 1, a repeated list entry)."""
    return dict(
        dist_x=draw(LAWS), dist_c=draw(LAWS),
        n=draw(st.integers()), reps=draw(st.integers()), seed=draw(st.integers()),
        k_min=draw(st.integers()), k_max=draw(st.integers()), k_step=draw(st.integers()),
        alphas=tuple(draw(ALPHAS)),
        families=tuple(draw(st.lists(st.sampled_from(Family), min_size=1))),
        methods=tuple(draw(st.lists(st.sampled_from(Method), min_size=1))),
        out=draw(st.none() | st.text()),
    )


@settings(max_examples=300, deadline=None)
@given(run_configs())
def test_every_config_reads_back_from_its_text(kwargs):
    if (any(not 1 <= a < math.inf for a in kwargs["alphas"])
            or any(len(set(kwargs[key])) < len(kwargs[key])
                   for key in ("alphas", "families", "methods"))):
        # parse_config would reject its text, so the constructor does
        # (with a valid k range and out, which it checks first)
        valid = dict(k_min=1, k_max=1, k_step=1, out=None)
        with pytest.raises(ValueError, match="^(alpha must be >= 1|key '[a-z]+' repeats entry)"):
            RunConfig(**{**kwargs, **valid})
        return
    try:
        cfg = RunConfig(**kwargs)
    except ValueError:
        return  # a rule of the constructor: the k range, or an out that would not read back
    assert parse_config(config_text(cfg)) == cfg


class TestParseErrors:
    @pytest.mark.parametrize("key,value,message", [
        ("dist_x", "gpd(1)", "line 1: key 'dist_x': gpd takes 2 parameters, got 1 in 'gpd(1)'"),
        ("dist_c", "weibull(2)", "line 2: key 'dist_c': unknown distribution 'weibull' "
                                 "(expected one of revburr, gpd, beta)"),
        ("n", "five hundred", "line 3: key 'n' expects an integer, got 'five hundred'"),
        ("reps", "2.5", "line 4: key 'reps' expects an integer, got '2.5'"),
        ("seed", "1.5", "line 5: key 'seed' expects an integer, got '1.5'"),
        ("k_min", "ten", "line 6: key 'k_min' expects an integer, got 'ten'"),
        ("k_max", "2e2", "line 7: key 'k_max' expects an integer, got '2e2'"),
        ("k_step", "2.5", "line 8: key 'k_step' expects an integer, got '2.5'"),
        ("alpha", "0.5", "line 8: key 'alpha': alpha must be >= 1 and finite, got 0.5"),
        ("families", "mom,hill", "line 8: key 'families' has unknown entry 'hill' "
                                 "(expected one of mom, type1, type2)"),
        ("methods", "km,kaplan", "line 8: key 'methods' has unknown entry 'kaplan' "
                                 "(expected one of km, l, efg)"),
        ("out", "", "line 8: key 'out' must not be empty"),
    ])
    def test_bad_value_names_line_and_key(self, key, value, message):
        lines = MINIMAL.splitlines()
        keys = [line.partition("=")[0].strip() for line in lines]
        if key in keys:
            lines[keys.index(key)] = f"{key} = {value}"
        else:
            lines.append(f"{key} = {value}")
        with pytest.raises(ValueError) as info:
            parse_config("\n".join(lines) + "\n")
        assert str(info.value) == message

    def test_the_first_bad_line_is_reported(self):
        # values are read at their lines, so a bad value comes before a
        # later unknown key or a missing one
        text = MINIMAL.replace("n = 500", "n = x").replace("seed = 2014\n", "") + "bogus = 1\n"
        with pytest.raises(ValueError, match="^line 3: key 'n' expects an integer"):
            parse_config(text)

    def test_unknown_key_names_the_line(self):
        with pytest.raises(ValueError, match="line 8: unknown key 'bogus'"):
            parse_config(MINIMAL + "bogus = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ValueError, match="line 8: duplicate key 'n'"):
            parse_config(MINIMAL + "n = 600\n")

    @pytest.mark.parametrize("line,entry", [
        ("families = mom,type1,mom", "'families' repeats entry 'mom'"),
        ("methods = km, efg ,efg", "'methods' repeats entry 'efg'"),
        ("alpha = 2,3,2.0", "'alpha' repeats entry '2.0'"),
    ])
    def test_repeated_list_entry_names_line_and_entry(self, line, entry):
        # a repeated estimator would be evaluated twice per cell
        with pytest.raises(ValueError, match=f"line 8: key {entry}"):
            parse_config(MINIMAL + line + "\n")

    def test_missing_required(self):
        text = "\n".join(line for line in MINIMAL.splitlines() if not line.startswith("seed"))
        with pytest.raises(ValueError, match="missing required key 'seed'"):
            parse_config(text)

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="line 8: expected 'key = value'"):
            parse_config(MINIMAL + "just some words\n")

    def test_bad_integer_names_line_and_key(self):
        text = MINIMAL.replace("n = 500", "n = five hundred")
        with pytest.raises(ValueError, match="line 3: key 'n' expects an integer"):
            parse_config(text)

    def test_bad_distribution_names_line_and_key(self):
        text = MINIMAL.replace("dist_c = revburr(10,0.6666666666666666,1,10)",
                               "dist_c = weibull(2)")
        with pytest.raises(ValueError, match="line 2: key 'dist_c'.*unknown distribution"):
            parse_config(text)

    @pytest.mark.parametrize("literal", ["gpd(-0.5,inf)", "gpd(-inf,1)", "revburr(inf,1,1,10)",
                                         "revburr(1,inf,1,10)", "beta(inf,2)"])
    def test_non_finite_parameter_names_line_and_key(self, literal):
        text = MINIMAL.replace("dist_x = revburr(1,1,1,10)", f"dist_x = {literal}")
        with pytest.raises(ValueError, match="line 1: key 'dist_x': .* requires finite parameters"):
            parse_config(text)

    def test_empty_out_names_line_and_key(self):
        with pytest.raises(ValueError, match="line 8: key 'out' must not be empty"):
            parse_config(MINIMAL + "out =\n")

    def test_bad_family_entry(self):
        with pytest.raises(ValueError, match="key 'families' has unknown entry 'hill'"):
            parse_config(MINIMAL + "families = mom,hill\n")

    def test_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            parse_config(MINIMAL + "alpha = x\n")
        with pytest.raises(ValueError, match="alpha must be >= 1"):
            parse_config(MINIMAL + "alpha = 0.5\n")

    def test_k_ordering(self):
        text = MINIMAL.replace("k_min = 50", "k_min = 300")
        with pytest.raises(ValueError, match="k_min"):
            parse_config(text)

    def test_k_step_positive(self):
        with pytest.raises(ValueError, match="k_step"):
            parse_config(MINIMAL + "k_step = 0\n")


class TestRunConfig:
    def test_k_grid(self):
        cfg = parse_config(MINIMAL + "k_step = 25\n")
        assert cfg.k_grid == tuple(range(50, 251, 25))
        single = parse_config(MINIMAL.replace("k_max = 250", "k_max = 50"))
        assert single.k_grid == (50,)

    def test_to_design(self):
        cfg = parse_config(FULL)
        design = cfg.to_design()
        assert design.dist_x == cfg.dist_x
        assert design.k_grid == cfg.k_grid
        assert design.seed == cfg.seed
        assert len(design.specs) == len(cfg.families) * len(cfg.methods) * len(cfg.alphas)

    def test_huge_k_max_fails_before_the_grid_is_built(self):
        # k_max = 10**9 as a tuple would take tens of GiB; the range's
        # ends are checked against n first
        cfg = parse_config(MINIMAL.replace("k_max = 250", f"k_max = {10**9}"))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="1 <= k < n"):
                cfg.to_design()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError, match="alpha list"):
            RunConfig(
                dist_x=GPD(-0.5, 1), dist_c=GPD(-0.25, 0.5),
                n=100, reps=10, seed=1, k_min=5, k_max=20, alphas=(),
            )

    def test_empty_out_is_rejected_when_built(self):
        # config_text would write "out = ", which parse_config cannot read back
        args = dict(dist_x=GPD(-0.5, 1), dist_c=GPD(-0.25, 0.5), n=100, reps=10, seed=1,
                    k_min=5, k_max=20)
        with pytest.raises(ValueError, match="key 'out' must not be empty"):
            RunConfig(**args, out="")
        # nor one that str.strip or str.splitlines would change
        for out in [" a.csv", "a.csv\r", "a.csv\nn = 7", "a\u2028b"]:
            with pytest.raises(ValueError, match="key 'out' must not have surrounding whitespace "
                                                 "or line breaks"):
                RunConfig(**args, out=out)
        for out in ["study.csv", "my file.csv"]:
            cfg = RunConfig(**args, out=out)
            assert parse_config(config_text(cfg)) == cfg

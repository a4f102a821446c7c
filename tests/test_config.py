import tracemalloc

import pytest

from censored_evi import Family, GPD, Method, ReverseBurr
from censored_evi.config import RunConfig, config_text, parse_config

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


class TestParseErrors:
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
        cfg = RunConfig(**args, out="study.csv")
        assert parse_config(config_text(cfg)) == cfg

"""Command-line runner: config handling, CSV determinism, subcommand output."""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

import memphase
from memphase.channel import (
    CoherenceLabel,
    _decay_factors_and_exponents,
    decay_exponent,
    decay_factor,
)
from memphase.cli import (
    RunConfig,
    _parse_labels,
    _suite_mc_fidelity,
    _suite_route_equivalence,
    cmd_decay,
    cmd_fig2,
    cmd_fig3,
    cmd_validate,
    main,
)
from memphase.codes import (
    _pe_tqc_memoryless,
    _pe_tqc_worst,
    fe_tqc_general,
    pe_tqc_memory,
    pe_two_qubit,
)
from memphase.correlation import (
    ChannelParams,
    check_mu_feasible,
    covariance_from_spectrum,
    g_from_epsilon,
)
from memphase.errors import ConfigError, DomainError
from memphase.spectrum import Lorentzian, OneOverF

try:
    import resource
except ImportError:  # not on every platform
    resource = None


# valid spectra whose kernel closed forms leave the float range
FLOAT_RANGE_CONFIGS = {
    "gamma-tiny": "gamma = 1e-300\n",
    "gamma-huge": "gamma = 1e200\n",
    "omega_min-tiny": "spectrum = one_over_f\nomega_min = 1e-300\n",
    "omega_max-inf": "spectrum = one_over_f\nomega_max = inf\n",
    "omega_max-huge": "spectrum = one_over_f\nomega_max = 1e300\ntau = 1e9\n",
    "one_over_f-tau-huge": "spectrum = one_over_f\ntau = 1e300\n",
    "amplitude-huge": (
        "spectrum = one_over_f\namplitude = 1e300\nomega_min = 1e-12\ntau_p = 1e8\ntau = 1e8\n"
    ),
}


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def data_rows(text):
    return [
        line for line in text.splitlines() if line and not line.startswith("#")
    ]


class TestConfig:
    def test_defaults_without_file(self):
        config = RunConfig.from_file(None)
        assert config.spectrum == "lorentzian"
        assert config.seed == 12345

    def test_parses_keys_and_comments(self, tmp_path):
        path = write_config(
            tmp_path,
            "# channel setup\nspectrum = white\nlevel = 0.5\n\nn_uses = 2  # two uses\n",
        )
        config = RunConfig.from_file(path)
        assert config.spectrum == "white"
        assert config.level == 0.5
        assert config.n_uses == 2

    def test_unknown_key_diagnostic(self, tmp_path):
        path = write_config(tmp_path, "spectrum = white\nbogus = 1\n")
        with pytest.raises(ConfigError, match=r":2: unknown key 'bogus'"):
            RunConfig.from_file(path)

    def test_bad_value_diagnostic(self, tmp_path):
        path = write_config(tmp_path, "gamma = fast\n")
        with pytest.raises(ConfigError, match=r":1: field 'gamma'"):
            RunConfig.from_file(path)

    def test_missing_separator_diagnostic(self, tmp_path):
        path = write_config(tmp_path, "gamma 1.0\n")
        with pytest.raises(ConfigError, match=r":1: expected"):
            RunConfig.from_file(path)

    def test_unknown_spectrum_kind(self):
        with pytest.raises(ConfigError, match="spectrum"):
            RunConfig(spectrum="pink").make_spectrum()

    @pytest.mark.parametrize("kind", ["1/f", "oneoverf", "One_Over_F", "WHITE", "Lorentzian"])
    def test_other_spellings_are_unknown_kinds(self, tmp_path, capsys, kind):
        # one experiment, one spelling, one config hash
        code = main(["decay", "--config", write_config(tmp_path, f"spectrum = {kind}\n")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: field 'spectrum': unknown kind {kind!r} "
            "(expected white | lorentzian | one_over_f)\n"
        )

    def test_every_key_at_its_default_parses_back(self, tmp_path):
        # the casters come from the field defaults; None-default fields are strings
        text = "".join(
            f"{f.name} = {f.default}\n" for f in fields(RunConfig) if f.default is not None
        )
        parsed = RunConfig.from_file(write_config(tmp_path, text))
        assert parsed == RunConfig()
        # the hash prints reprs, so it also tells 3 from 3.0
        assert parsed.config_hash() == RunConfig().config_hash()

    def test_hash_tracks_content(self):
        assert RunConfig().config_hash() != RunConfig(seed=1).config_hash()


class TestDecayCommand:
    def test_white_rows_are_memoryless(self):
        config = RunConfig(spectrum="white", level=0.5, n_uses=3)
        rows = data_rows(cmd_decay(config))
        mu_rows = rows[1:4]  # after the mu header
        for row in mu_rows[1:]:
            assert abs(float(row.split(",")[1])) < 1e-10

    def test_single_use_coherence_row_is_damping(self):
        config = RunConfig(n_uses=1)
        text = cmd_decay(config)
        g = float(
            next(l for l in text.splitlines() if l.startswith("# eta_sq")).split("g=")[1].split()[0]
        )
        row = next(l for l in data_rows(text) if l.startswith("0,1,"))
        assert float(row.split(",")[3]) == pytest.approx(g, abs=1e-12)

    def test_population_rows_undamped(self):
        text = cmd_decay(RunConfig(n_uses=2))
        for row in data_rows(text):
            parts = row.split(",")
            if len(parts) == 4 and parts[0] == parts[1] and parts[0] in ("00", "01", "10", "11"):
                assert float(parts[3]) == 1.0

    def test_explicit_labels(self):
        config = RunConfig(n_uses=3, labels="000:111")
        rows = [r for r in data_rows(cmd_decay(config)) if r.startswith("000,111")]
        assert len(rows) == 1

    def test_bad_label_diagnostic(self):
        with pytest.raises(ConfigError, match="labels"):
            cmd_decay(RunConfig(n_uses=3, labels="00:11"))

    def test_label_length_is_checked_after_stripping(self):
        # "01 " and " 01" have three characters but only two qubits each
        with pytest.raises(ConfigError, match=r"'01 : 01' does not match n_uses=3"):
            cmd_decay(RunConfig(n_uses=3, labels="01 : 01"))

    def test_label_with_spaces_around_the_colon(self, tmp_path, capsys):
        path = write_config(tmp_path, "labels = 000 : 111\n")
        assert main(["decay", "--config", path]) == 0
        expected = data_rows(cmd_decay(RunConfig(labels="000:111")))
        assert data_rows(capsys.readouterr().out) == expected
        assert expected[-1].startswith("000,111,")

    @pytest.mark.parametrize("labels", ["-01:111", "0b1:111", "+01:111", "0_1:111"])
    def test_label_bits_other_than_0_and_1_exit_code(self, tmp_path, capsys, labels):
        code = main(["decay", "--config", write_config(tmp_path, f"labels = {labels}\n")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"config error: field 'labels': {labels!r}: bitstrings must be made of 0 and 1"
        )

    @pytest.mark.parametrize(
        "labels,message",
        [
            ("000", "expected 'jbits:lbits', got '000'"),
            ("00:111", "'00:111' does not match n_uses=3"),
            ("0a1:111", "'0a1:111': bitstrings must be made of 0 and 1, got '0a1', '111'"),
            ("000:111,", "expected 'jbits:lbits', got ''"),
        ],
        ids=["no-colon", "wrong-width", "bad-character", "empty-item"],
    )
    def test_bad_label_stderr(self, tmp_path, capsys, labels, message):
        code = main(["decay", "--config", write_config(tmp_path, f"labels = {labels}\n")])
        assert code == 2
        assert capsys.readouterr().err == f"config error: field 'labels': {message}\n"

    def test_decay_cross_check_failure_exit_code(self, tmp_path, capsys):
        # g is subnormal (~1e-322), so g**E and exp(-2 eta^2 E) disagree
        text = "gamma = 1e-9\ncoupling = 38.5\nn_uses = 2\n"
        code = main(["decay", "--config", write_config(tmp_path, text)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "config error: decay factor of 01:10: decay-factor forms disagree"
        )

    def test_weak_coupling_over_many_uses_prints(self, tmp_path, capsys):
        # g**E carries the rounding of g some 2 * 10^4 times here and lands
        # 1.0e-12 from exp(-2 eta^2 E), the factor printed
        text = "coupling = 1e-3\ngamma = 1e-3\nn_uses = 150\n"
        code = main(["decay", "--config", write_config(tmp_path, text)])
        assert code == 0
        rows = data_rows(capsys.readouterr().out)
        assert rows[rows.index("j,l,exponent,decay") + 1 :] == [
            f"{'0' * 150},{'1' * 150},2.142309209591e+04,9.893491498703e-01"
        ]

    def test_white_beyond_window_is_exactly_uncorrelated(self):
        text = cmd_decay(RunConfig(spectrum="white", tau=1.5))
        assert "# mu_feasible=yes" in text.splitlines()
        rows = data_rows(text)
        assert rows[1:4] == [
            "0,1.000000000000e+00",
            "1,0.000000000000e+00",
            "2,0.000000000000e+00",
        ]

    @pytest.mark.parametrize(
        "config_text",
        [
            "tau_p = 0.2\ntau = 1\nn_uses = 6\n",
            "spectrum = one_over_f\nomega_min = 0.01\nomega_max = 50\nn_uses = 24\n",
        ],
        ids=["lorentzian-short-window", "one_over_f-wide-band"],
    )
    def test_long_lag_configs_run(self, tmp_path, capsys, config_text):
        code = main(["decay", "--config", write_config(tmp_path, config_text)])
        assert code == 0
        assert "m,mu_m" in capsys.readouterr().out


class TestFig2Command:
    def test_columns_and_degenerate_row(self):
        text = cmd_fig2(RunConfig(mu1_step=0.1))
        rows = data_rows(text)
        header = rows[0].split(",")
        assert header[:7] == [
            "mu1",
            "mu2_lower",
            "Pe_tqc_at_mu2_lower",
            "Pe_tqc_at_mu2_eq_mu1",
            "Pe_two_qubit",
            "Pe_single",
            "Pe_tqc_memoryless",
        ]
        first = rows[1].split(",")
        assert float(first[0]) == 0.0
        # at mu1 = 0 both code columns collapse onto the memoryless value
        assert float(first[2]) == float(first[6])
        assert float(first[3]) == float(first[6])

    def test_perfect_memory_row(self):
        text = cmd_fig2(RunConfig(mu1_step=0.5, epsilon=1e-3))
        last = data_rows(text)[-1].split(",")
        assert float(last[0]) == 1.0
        assert float(last[3]) == pytest.approx(9e-6, rel=0.05)
        # two-qubit code decoherence-free, printed as 0 and not -0
        assert last[4] == "0.000000000000e+00"

    def test_grid_ends_at_one_when_step_does_not_divide(self):
        mu1 = [row.split(",")[0] for row in data_rows(cmd_fig2(RunConfig(mu1_step=0.3)))[1:]]
        assert mu1 == ["0.000000", "0.300000", "0.600000", "0.900000", "1.000000"]

    @pytest.mark.parametrize("step", [0.33333333, 0.1428571])
    def test_single_unit_row_when_last_point_prints_as_one(self, step):
        # the last multiple of these steps lies within 5e-7 of 1 but misses
        # the whole-number test, so it printed as a second 1.000000 row
        mu1 = [row.split(",")[0] for row in data_rows(cmd_fig2(RunConfig(mu1_step=step)))[1:]]
        assert mu1[-1] == "1.000000"
        assert len(mu1) == len(set(mu1)) == math.floor(1.0 / step) + 1

    def test_two_qubit_column_exact_at_small_epsilon(self):
        # at mu1 = 0.5 the column is (1 - g)/2 = epsilon itself; ln g of the
        # rounded g printed 9.999999999999e-05
        rows = [r.split(",") for r in data_rows(cmd_fig2(RunConfig(epsilon=1e-4)))[1:]]
        (row,) = [r for r in rows if r[0] == "0.500000"]
        assert row[4] == "1.000000000000e-04"

    def test_all_rows_annotated_feasible(self):
        text = cmd_fig2(RunConfig(mu1_step=0.1))
        for row in data_rows(text)[1:]:
            parts = row.split(",")
            assert parts[7] == "1" and parts[8] == "1"


class TestFig3Command:
    def test_quadratic_scaling_and_ratio(self):
        text = cmd_fig3(RunConfig(eps_min=1e-4, eps_max=1e-2, eps_points=21))
        rows = [r.split(",") for r in data_rows(text)[1:]]
        eps = np.array([float(r[0]) for r in rows])
        pe0 = np.array([float(r[1]) for r in rows])
        pe1 = np.array([float(r[2]) for r in rows])
        slope0 = np.polyfit(np.log(eps), np.log(pe0), 1)[0]
        slope1 = np.polyfit(np.log(eps), np.log(pe1), 1)[0]
        assert abs(slope0 - 2.0) <= 0.02
        assert abs(slope1 - 2.0) <= 0.02
        assert pe1[0] / pe0[0] == pytest.approx(3.0, abs=0.1)

    def test_two_qubit_column(self):
        text = cmd_fig3(RunConfig(eps_points=5))
        row = data_rows(text)[1].split(",")
        eps = float(row[0])
        g = 1 - 2 * eps
        assert float(row[3]) == pytest.approx((1 - g**0.02) / 2, rel=1e-9)

    def test_error_probabilities_exact_at_small_epsilon(self):
        # 1 - F printed 1.110223024625e-16 for both code columns here, and ln g
        # of the rounded g 2.000000056418e-11 for the two-qubit code
        text = cmd_fig3(RunConfig(eps_min=1e-9, eps_max=0.4999, eps_points=1001))
        assert data_rows(text)[1] == (
            "1.000000000000e-09,2.999999998000e-18,8.999999958000e-18,2.000000001960e-11,1,1"
        )

    def test_subnormal_epsilon_prints_positive_zero(self, tmp_path):
        # under -W error, so that no float warning passes unseen either
        config = write_config(tmp_path, "eps_min = 5e-324\n")
        package_root = os.path.dirname(os.path.dirname(memphase.__file__))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "memphase.cli", "fig3", "--config", config],
            env=dict(os.environ, PYTHONPATH=package_root),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        rows = data_rows(done.stdout)[1:]
        assert rows[0] == "4.940656458412e-324,0.000000000000e+00,0.000000000000e+00,0.000000000000e+00,1,1"
        assert not any(field.startswith("-") for row in rows for field in row.split(","))

    def test_bad_range_diagnostic(self):
        with pytest.raises(ConfigError, match="eps_min"):
            cmd_fig3(RunConfig(eps_min=0.2, eps_max=0.1))

    def test_bad_step_diagnostic(self):
        with pytest.raises(ConfigError, match="mu1_step"):
            cmd_fig2(RunConfig(mu1_step=0.0))


def reference_pe_tqc(g, mu1, mu2):
    pe = pe_tqc_memory(g, mu1, mu2)
    # fe_tqc_general writes the formula out on its own, so a fault in the
    # formula both sides share shows up here; 2e-15 is about ten ulp of F = 1
    assert abs(pe - (1.0 - fe_tqc_general(g, mu1, mu2, mu1))) <= 2e-15
    return pe


def reference_pe_two_qubit(eps, mu1):
    pe = -0.5 * math.expm1(2.0 * (1.0 - mu1) * math.log1p(-2.0 * eps)) + 0.0
    # pe_two_qubit takes ln g of the rounded g = 1 - 2 eps, which moves its
    # value by at most ~2e-16; test_codes checks this form against mpmath
    assert abs(pe - pe_two_qubit(g_from_epsilon(eps), mu1)) <= 2e-15
    return pe


def reference_fixed_mu(form, eps, mu):
    pe = form(eps)
    # 1 - F of the full formula is within ~1e-16 of the factored form
    assert abs(pe - reference_pe_tqc(g_from_epsilon(eps), mu, mu)) <= 2e-15
    return pe


def reference_fig2_rows(config):
    """fig2 rows from the public functions, every value computed and checked per row."""
    eps = config.epsilon
    g = g_from_epsilon(eps)
    steps = 1.0 / config.mu1_step
    whole = abs(steps - round(steps)) <= 1e-9 * steps
    n_points = (round(steps) if whole else math.floor(steps)) + 1
    mu1_grid = [i * config.mu1_step for i in range(n_points)]
    if not whole:
        # a last point within 5e-7 of 1 prints as 1.000000, a second mu1 = 1 row
        if 1.0 - mu1_grid[-1] < 5e-7:
            mu1_grid.pop()
        mu1_grid.append(1.0)
    rows = []
    for mu1 in mu1_grid:
        mu1 = min(mu1, 1.0)
        mu2_lower = max(0.0, 2.0 * mu1 * mu1 - 1.0)
        pe_lower = reference_pe_tqc(g, mu1, mu2_lower)
        pe_upper = reference_pe_tqc(g, mu1, mu1)
        pe_2q = reference_pe_two_qubit(eps, mu1)
        pe_memoryless = reference_pe_tqc(g, 0.0, 0.0)
        feas_lo = check_mu_feasible(mu1, mu2_lower).feasible
        feas_hi = check_mu_feasible(mu1, mu1).feasible
        rows.append(
            f"{mu1:.6f},{mu2_lower:.12e},{pe_lower:.12e},{pe_upper:.12e},"
            f"{pe_2q:.12e},{eps:.12e},{pe_memoryless:.12e},"
            f"{int(feas_lo)},{int(feas_hi)}"
        )
    return rows


def reference_fig3_rows(config):
    """fig3 rows from the public functions, every value computed and checked per row."""
    rows = []
    for eps in np.geomspace(config.eps_min, config.eps_max, config.eps_points):
        eps = float(eps)
        pe_memoryless = reference_fixed_mu(_pe_tqc_memoryless, eps, 0.0)
        pe_worst = reference_fixed_mu(_pe_tqc_worst, eps, 1.0)
        pe_2q = reference_pe_two_qubit(eps, 0.99)
        feas_0 = check_mu_feasible(0.0, 0.0).feasible
        feas_1 = check_mu_feasible(1.0, 1.0).feasible
        rows.append(
            f"{eps:.12e},{pe_memoryless:.12e},{pe_worst:.12e},{pe_2q:.12e},"
            f"{int(feas_0)},{int(feas_1)}"
        )
    return rows


def reference_kernel(config, d):
    """I(d) of the config's spectrum, per lag: the three-piece closed forms,
    with one scalar ``sici`` call per cosine integral."""
    tau_p = config.tau_p
    if config.spectrum == "white":
        return 0.25 * config.level * max(tau_p - d, 0.0)
    if config.spectrum == "lorentzian":
        variance, rate = config.sigma2, config.gamma
        if d >= tau_p:
            edge = math.expm1(-rate * tau_p)
            return variance / (4.0 * rate * rate) * math.exp(-rate * (d - tau_p)) * edge * edge

        def piece(a):
            x = rate * a
            if x > 0.1:
                remainder = math.expm1(-x) + x
            else:
                remainder = sum((-x) ** k / math.factorial(k) for k in range(2, 18))
            return variance / (2.0 * rate**2) * remainder

    else:
        from scipy.special import sici

        def antiderivative(a, w):
            x = a * w
            half = math.sin(0.5 * x)
            ci = float(sici(x)[1])
            return -half * half / (w * w) - a * math.sin(x) / (2.0 * w) + 0.5 * a * a * ci

        def piece(a):
            if a == 0.0:
                return 0.0
            return config.amplitude / (2.0 * math.pi) * (
                antiderivative(a, config.omega_max) - antiderivative(a, config.omega_min)
            )

    return 0.5 * piece(tau_p + d) + 0.5 * piece(abs(tau_p - d)) - piece(d)


def reference_decay(config):
    """(eta_sq line, data rows) of ``decay``, lag by lag and label by label."""
    n = config.n_uses
    i0 = reference_kernel(config, 0.0)
    mu = [1.0] + [reference_kernel(config, m * config.tau) / i0 for m in range(1, n)]
    assert max(abs(m) for m in mu) <= 1.0
    eta_sq = config.coupling * config.coupling * i0
    g = math.exp(-2.0 * eta_sq)
    toeplitz = np.array([[mu[abs(k - q)] for q in range(n)] for k in range(n)])
    if config.labels:
        pairs = [item.split(":") for item in config.labels.split(",")]
    else:
        bits = [format(b, f"0{n}b") for b in range(1 << n)]
        pairs = [(j, l) for a, j in enumerate(bits) for l in bits[a:]]
    rows = ["m,mu_m"] + [f"{m},{value:.12e}" for m, value in enumerate(mu)]
    rows.append("j,l,exponent,decay")
    for j, l in pairs:
        s = np.array([int(b) for b in l], dtype=float) - np.array([int(b) for b in j])
        exponent = float(s @ toeplitz @ s)
        decay = math.exp(-2.0 * (eta_sq * exponent))
        rows.append(f"{j},{l},{exponent:.12e},{decay:.12e}")
    eps = 0.5 * (1.0 - g)
    return f"# eta_sq={eta_sq:.12e} g={g:.12e} epsilon={eps:.12e}", rows


def assert_same_rows(got, want):
    # row by row: pytest's diff of two 10 000-line strings takes minutes
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert got_row == want_row


class TestSweepBytes:
    """The sweeps check each constant once and take each sweep's g-only terms
    once; their rows must print the per-row references byte for byte."""

    @pytest.mark.parametrize(
        "config",
        [
            RunConfig(),
            RunConfig(mu1_step=1e-4),
            RunConfig(epsilon=1e-4),
            RunConfig(epsilon=3.7e-3),
            RunConfig(epsilon=0.1),
            RunConfig(mu1_step=0.3),
            RunConfig(mu1_step=0.33333333),
            RunConfig(mu1_step=0.007),
            RunConfig(epsilon=1e-7),
            RunConfig(epsilon=0.49),
            RunConfig(epsilon=1e-9),
            RunConfig(epsilon=0.4999),
            RunConfig(mu1_step=0.07),
            RunConfig(mu1_step=0.123),
        ],
        ids=[
            "default", "step-1e-4", "eps-1e-4", "eps-3.7e-3", "eps-0.1",
            "step-0.3", "step-0.33333333", "step-0.007", "eps-1e-7", "eps-0.49",
            "eps-1e-9", "eps-0.4999", "step-0.07", "step-0.123",
        ],
    )
    def test_fig2_rows(self, config):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_rows(data_rows(cmd_fig2(config))[1:], reference_fig2_rows(config))

    @pytest.mark.parametrize(
        "config",
        [
            RunConfig(),
            RunConfig(eps_points=10_000),
            RunConfig(eps_min=1e-7, eps_max=0.49, eps_points=2),
            RunConfig(eps_min=1e-9, eps_max=0.4999, eps_points=1001),
        ],
        ids=["default", "points-10000", "range-1e-7-0.49-points-2", "range-1e-9-0.4999-points-1001"],
    )
    def test_fig3_rows(self, config):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_rows(data_rows(cmd_fig3(config))[1:], reference_fig3_rows(config))


DECAY_SPECTRA = {
    "white": {"spectrum": "white", "level": 0.7},
    "lorentzian": {"spectrum": "lorentzian", "sigma2": 1.3, "gamma": 0.8},
    "one_over_f-10": {"spectrum": "one_over_f", "omega_min": 0.1, "omega_max": 10.0},
    "one_over_f-1000": {"spectrum": "one_over_f", "omega_min": 0.1, "omega_max": 1000.0},
}


def decay_config(spectrum, n_uses, spacing):
    """A decay config at tau = spacing * tau_p, with explicit labels beyond 3 uses."""
    labels = None
    if n_uses > 3:
        rng = np.random.default_rng(n_uses)

        def bits():
            return "".join(str(b) for b in rng.integers(0, 2, n_uses))

        population = bits()
        pairs = [f"{bits()}:{bits()}" for _ in range(5)] + [f"{population}:{population}"]
        labels = ",".join(pairs)
    return RunConfig(
        **DECAY_SPECTRA[spectrum], coupling=0.8, tau_p=0.7, tau=spacing * 0.7,
        n_uses=n_uses, labels=labels,
    )


class TestDecayBytes:
    """The kernels of a covariance share one cosine-integral call and the
    weights of all labels come from one bit read, exact past 63 qubits; the
    decay rows must not change by a byte."""

    @pytest.mark.parametrize("spacing", [1.0, 1.7, 40.0], ids=["tau-tp", "tau-1.7tp", "tau-40tp"])
    @pytest.mark.parametrize("n_uses", [1, 3, 9, 33, 63, 64, 70])
    @pytest.mark.parametrize("spectrum", list(DECAY_SPECTRA))
    def test_decay_rows(self, spectrum, n_uses, spacing):
        config = decay_config(spectrum, n_uses, spacing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = cmd_decay(config)
        eta_line, rows = reference_decay(config)
        assert eta_line in text.splitlines()
        assert_same_rows(data_rows(text), rows)

    @pytest.mark.parametrize("n_uses", [1, 3, 33, 64, 70])
    @pytest.mark.parametrize("spectrum", ["lorentzian", "one_over_f-1000"])
    def test_rows_equal_the_one_label_functions(self, spectrum, n_uses):
        # the one weight read of all labels gives, row by row, the values of
        # decay_factor and decay_exponent, unrounded and as printed
        config = decay_config(spectrum, n_uses, 1.7)
        cov = covariance_from_spectrum(config.make_spectrum(), config.make_channel_params())
        pairs = _parse_labels(config)
        rows = data_rows(cmd_decay(config))
        rows = rows[rows.index("j,l,exponent,decay") + 1 :]
        assert len(rows) == len(pairs) == {1: 3, 3: 36}.get(n_uses, 6)
        for row, (j, l), (d, exponent) in zip(rows, pairs, _decay_factors_and_exponents(pairs, cov)):
            label = CoherenceLabel(j, l, n_uses)
            assert (d, exponent) == (decay_factor(label, cov), decay_exponent(label, cov))
            j_bits, l_bits = row.split(",")[:2]
            assert CoherenceLabel.from_bitstrings(j_bits, l_bits) == label
            assert row == f"{j_bits},{l_bits},{exponent:.12e},{d:.12e}"

    def test_later_lag_failure_names_its_lag(self):
        # lag 0 is finite; the second lag's sine argument a * omega_max is inf
        spec = OneOverF(1.0, 0.1, 1e300)
        params = ChannelParams(1.0, 1.0, 1e9, 3)
        with pytest.raises(DomainError, match=r"OneOverF\(.*at lag 1000000000\.0 failed"):
            covariance_from_spectrum(spec, params)

    def test_covariance_matrix_is_read_only(self):
        cov = covariance_from_spectrum(Lorentzian(1.3, 0.8), ChannelParams(0.8, 0.7, 1.2, 9))
        np.testing.assert_array_equal(cov.sigma, cov.eta_sq * cov.mu_matrix)
        assert not cov.sigma.flags.writeable
        with pytest.raises(ValueError):
            cov.sigma[0, 0] = 0.0


class TestDeterminism:
    def test_byte_identical_reruns(self):
        config = RunConfig(mu1_step=0.2, eps_points=7, mc_samples=5000)
        assert cmd_fig2(config) == cmd_fig2(config)
        assert cmd_fig3(config) == cmd_fig3(config)
        assert cmd_decay(config) == cmd_decay(config)

    def test_validate_report_reproducible(self):
        config = RunConfig(mc_samples=20_000)
        report_a, status_a = cmd_validate(config)
        report_b, status_b = cmd_validate(config)
        assert report_a == report_b
        assert status_a == status_b == 0


class TestValidateCommand:
    def test_default_config_passes(self):
        report, status = cmd_validate(RunConfig(mc_samples=20_000))
        assert status == 0
        assert sum(line.startswith("PASS ") for line in report.splitlines()) == 4
        assert "ALL SUITES PASSED" in report

    def test_white_route_check_names_its_stand_in(self):
        report, status = cmd_validate(RunConfig(spectrum="white", mc_samples=20_000))
        assert status == 0
        line = next(l for l in report.splitlines() if "route_equivalence" in l)
        assert line.startswith(
            "PASS route_equivalence: spectral vs time-domain covariance of "
            "Lorentzian(variance=1.0, rate=1.0) in place of white: "
        )

    def test_route_check_resolves_correlation_time_far_below_window(self):
        # white stands in as Lorentzian(1, 1), so rate * tau_p = 1e8
        ok, detail = _suite_route_equivalence(RunConfig(spectrum="white", tau_p=1e8, tau=1e8))
        assert ok, detail

    @pytest.mark.parametrize("seed", [25, 26])
    def test_mc_fidelity_passes_on_high_z_seeds(self, seed):
        # the two largest deviations of seeds 1-48 (3.31 and 3.40 SE)
        ok, detail = _suite_mc_fidelity(RunConfig(seed=seed))
        assert ok, detail


class TestMainEntry:
    def test_writes_output_file(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = main(["fig2", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("# memphase fig2")

    def test_seed_override_in_metadata(self, tmp_path, capsys):
        code = main(["decay", "--seed", "777"])
        assert code == 0
        assert "# seed=777" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, "nonsense = 1\n")
        code = main(["decay", "--config", path])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_config_not_utf8_exit_code(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"spectrum = \xff\n")
        code = main(["decay", "--config", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {path}:")

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        code = main(["fig3", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot write output {out}:")

    @pytest.mark.parametrize(
        "config_text",
        [
            "gamma = nan\n",
            "spectrum = white\nlevel = 0\n",
            "spectrum = one_over_f\nomega_min = 20\nomega_max = 10\n",
        ],
        ids=["gamma-nan", "white-level-zero", "inverted-band"],
    )
    def test_bad_spectrum_parameters_exit_code(self, tmp_path, capsys, config_text):
        code = main(["decay", "--config", write_config(tmp_path, config_text)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: spectrum parameters:")

    @pytest.mark.parametrize(
        "command,config_text",
        [
            pytest.param("decay", "coupling = 100\n", id="decay-g-underflow"),
            pytest.param("decay", "coupling = 1e200\n", id="decay-eta-overflow"),
            pytest.param("validate", "coupling = 1e200\n", id="validate-eta-overflow"),
            pytest.param("decay", "tau_p = 1e-300\ntau = 1\n", id="decay-kernel-underflow"),
            pytest.param(
                "validate", "tau_p = 1e-300\ntau = 1\n", id="validate-kernel-underflow"
            ),
            pytest.param("validate", "coupling = 0\n", id="validate-noiseless"),
            pytest.param(
                "validate", "spectrum = one_over_f\nomega_max = 1e12\n", id="validate-panel-budget"
            ),
        ]
        + [
            # the 1/f closed form cancels at lags ~1e12, and the mu it gives admit no covariance
            pytest.param(
                command, "spectrum = one_over_f\ntau = 1e12\nn_uses = 200\n", id=f"{command}-not-psd"
            )
            for command in ("decay", "validate")
        ]
        + [
            pytest.param(command, config_text, id=f"{command}-{name}")
            for name, config_text in FLOAT_RANGE_CONFIGS.items()
            for command in ("decay", "validate")
        ],
    )
    def test_covariance_out_of_range_exit_code(self, tmp_path, capsys, command, config_text):
        code = main([command, "--config", write_config(tmp_path, config_text)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: phase covariance:")

    def test_negative_seed_exit_code(self, capsys):
        code = main(["validate", "--seed", "-1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: field 'seed': need >= 0")

    def test_single_mc_sample_exit_code(self, tmp_path, capsys):
        code = main(["validate", "--config", write_config(tmp_path, "mc_samples = 1\n")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: field 'mc_samples': need >= 2")

    def test_nonpositive_mc_samples_exit_code(self, tmp_path, capsys):
        code = main(["validate", "--config", write_config(tmp_path, "mc_samples = 0\n")])
        assert code == 2
        assert "config error: field 'mc_samples'" in capsys.readouterr().err

    # 10^17 rows need exbibytes, past any virtual address space, so the
    # allocation fails whatever the host's overcommit policy; numpy refuses
    # the larger sizes itself, with a ValueError in place of a MemoryError
    @pytest.mark.parametrize(
        "command,field,value",
        [
            pytest.param("validate", "mc_samples", 10**17, id="validate-mc_samples"),
            pytest.param("validate", "mc_samples", 10**18, id="validate-mc_samples-unindexable"),
            pytest.param("fig3", "eps_points", 10**17, id="fig3-eps_points"),
            pytest.param("fig3", "eps_points", 10**19, id="fig3-eps_points-unindexable"),
            pytest.param("fig2", "mu1_step", 1e-17, id="fig2-mu1_step"),
            # 1/mu1_step is inf: a subnormal step has no finite point count
            pytest.param("fig2", "mu1_step", 1e-310, id="fig2-mu1_step-subnormal"),
            pytest.param("fig2", "mu1_step", 5e-324, id="fig2-mu1_step-least-subnormal"),
        ],
    )
    def test_size_too_large_to_allocate_exit_code(self, tmp_path, capsys, command, field, value):
        code = main([command, "--config", write_config(tmp_path, f"{field} = {value}\n")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"config error: field '{field}': {value} is too large to allocate ("
        )

    # the Toeplitz matrix T of 10^5 uses takes 74.5 GiB; a child process that
    # limits its own address space to 3 GiB sees the allocation fail without
    # the test process asking for it
    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    @pytest.mark.parametrize("command", ["decay", "validate"])
    def test_uses_too_many_to_allocate_exit_code(self, tmp_path, command):
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
            "from memphase.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        config = write_config(tmp_path, "n_uses = 100000\n")
        package_root = os.path.dirname(os.path.dirname(memphase.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script, command, "--config", config],
            env=dict(os.environ, PYTHONPATH=package_root),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr.startswith(
            "config error: field 'n_uses': 100000 is too large to allocate ("
        )
        assert done.stdout == ""

    @staticmethod
    def run_rows_limited(tmp_path, command, field, value, headroom_kb):
        """Run a sweep in a child whose address space may grow ``headroom_kb``
        beyond its own size after importing memphase."""
        script = (
            "import resource, sys\n"
            "from memphase.cli import main\n"
            "with open('/proc/self/status') as fh:\n"
            "    size = next(int(line.split()[1]) for line in fh if line.startswith('VmSize:'))\n"
            f"limit = (size + {headroom_kb}) << 10\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        config = write_config(tmp_path, f"{field} = {value}\n")
        package_root = os.path.dirname(os.path.dirname(memphase.__file__))
        return subprocess.run(
            [sys.executable, "-c", script, command, "--config", config],
            env=dict(os.environ, PYTHONPATH=package_root),
            capture_output=True, text=True, timeout=120,
        )

    # 10^6 fig2 rows take ~280 MB of text (its chunks and their join) and fig3
    # rows ~180 MB, their grids ~40 MB and ~30 MB; a child that limits its
    # address space to 64 MB above its own size after the import fits the grid
    # but not the rows, on any machine.  A MemoryError raised for a Python
    # object has no message, so the reason in the parentheses must not come
    # out empty.
    @classmethod
    def assert_rows_limited_config_error(cls, tmp_path, command, field, value):
        done = cls.run_rows_limited(tmp_path, command, field, value, 64 << 10)
        assert done.returncode == 2
        prefix = f"config error: field '{field}': {value} is too large to allocate ("
        assert done.stderr.startswith(prefix)
        assert done.stderr.endswith(")\n")
        assert done.stderr[len(prefix) : -2].strip()
        assert done.stdout == ""

    @pytest.mark.skipif(
        resource is None or not os.path.exists("/proc/self/status"),
        reason="needs the resource module and /proc/self/status",
    )
    def test_fig2_rows_too_many_to_allocate_exit_code(self, tmp_path):
        self.assert_rows_limited_config_error(tmp_path, "fig2", "mu1_step", "1e-06")

    @pytest.mark.skipif(
        resource is None or not os.path.exists("/proc/self/status"),
        reason="needs the resource module and /proc/self/status",
    )
    def test_fig3_rows_too_many_to_allocate_exit_code(self, tmp_path):
        self.assert_rows_limited_config_error(tmp_path, "fig3", "eps_points", "1000000")

    # a sweep's text is formatted a chunk of rows at a time: 10^6 rows fit in
    # 340000 kB (fig2) and 220000 kB (fig3) above the interpreter's size, just
    # under what formatting each row to its own string and joining the list took
    @pytest.mark.skipif(
        resource is None or not os.path.exists("/proc/self/status"),
        reason="needs the resource module and /proc/self/status",
    )
    @pytest.mark.parametrize(
        "command, field, value, headroom_kb, rows",
        [
            ("fig2", "mu1_step", "1e-06", 340_000, 1_000_001),
            ("fig3", "eps_points", "1000000", 220_000, 1_000_000),
        ],
        ids=["fig2", "fig3"],
    )
    def test_million_rows_fit_the_limit(self, tmp_path, command, field, value, headroom_kb, rows):
        done = self.run_rows_limited(tmp_path, command, field, value, headroom_kb)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert len(data_rows(done.stdout)) == rows + 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_coupling_exit_code(self, tmp_path, capsys, value):
        code = main(["decay", "--config", write_config(tmp_path, f"coupling = {value}\n")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "config error: channel parameters: coupling must be finite"
        )

    @pytest.mark.parametrize("command", ["decay", "validate"])
    @pytest.mark.parametrize("spectrum", ["white", "lorentzian", "one_over_f"])
    @pytest.mark.parametrize("timing", ["tau = inf\n", "tau_p = inf\ntau = inf\n"], ids=["tau", "both"])
    def test_non_finite_timing_exit_code(self, tmp_path, capsys, command, spectrum, timing):
        text = f"spectrum = {spectrum}\n{timing}"
        code = main([command, "--config", write_config(tmp_path, text)])
        assert code == 2
        first = "tau" if timing.startswith("tau =") else "tau_p"
        assert capsys.readouterr().err == (
            f"config error: channel parameters: {first} must be finite, got inf\n"
        )

    @pytest.mark.parametrize("spectrum", ["white", "lorentzian"])
    def test_largest_finite_spacing_runs(self, tmp_path, capsys, spectrum):
        text = f"spectrum = {spectrum}\ntau = 1e308\n"
        assert main(["decay", "--config", write_config(tmp_path, text)]) == 0
        assert "\n1,0.000000000000e+00\n" in capsys.readouterr().out

    def test_removed_dt_key_exit_code(self, tmp_path, capsys):
        code = main(["decay", "--config", write_config(tmp_path, "dt = 0.005\n")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_validate_white_bad_stand_in_exit_code(self, tmp_path, capsys):
        text = "spectrum = white\nsigma2 = -1\n"
        code = main(["validate", "--config", write_config(tmp_path, text)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: spectrum parameters:")

    def test_validate_overlapping_windows_exit_code(self, tmp_path, capsys):
        code = main(["validate", "--config", write_config(tmp_path, "tau = 0.5\n")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "config error: channel parameters: use spacing tau=0.5"
        )

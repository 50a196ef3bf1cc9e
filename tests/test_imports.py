"""Importing memphase and running its commands load no heavy scipy.

scipy.special loads only for the 1/f spectrum's cosine integral; the
time-domain cross-check route is numpy alone, so no path loads
scipy.integrate, scipy.linalg, scipy.optimize or scipy.sparse.

The check runs in a fresh interpreter: the test process itself has long
since loaded scipy.linalg and scipy.integrate through other test modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json
import sys

import numpy as np

import memphase
import memphase.cli
from memphase import (
    ChannelParams,
    DensityMatrix,
    PhaseCovariance,
    apply_channel,
    covariance_from_autocorrelation,
    covariance_from_spectrum,
    sample_phases_direct,
)
from memphase.cli import RunConfig, cmd_decay, cmd_fig2, cmd_fig3
from memphase.spectrum import Lorentzian

# scipy subpackages no path may load, but for scipy.special in the 1/f spectrum
HEAVY = ("scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.sparse", "scipy.special")


def loaded():
    return sorted(m for m in sys.modules if m.startswith(HEAVY))


config = RunConfig(spectrum="lorentzian")
cmd_fig2(config)
cmd_fig3(config)
cmd_decay(config)
cov = PhaseCovariance.from_damping(0.9, [1.0, 0.5, 0.3])
rho = DensityMatrix.from_state_vector(np.arange(1.0, 17.0))
apply_channel(rho, cov, (2, 0, 3))
sample_phases_direct(cov, 7, 1000)
before = loaded()

spec = Lorentzian(1.0, 1.0)
params = ChannelParams(1.0, 1.0, 1.5, 3)
c_spec = covariance_from_spectrum(spec, params)
c_time = covariance_from_autocorrelation(spec, params)
print(json.dumps({
    "before": before,
    "after": loaded(),
    "dev_eta": abs(c_spec.eta_sq - c_time.eta_sq) / c_spec.eta_sq,
    "dev_mu": float(np.abs(c_spec.mu - c_time.mu).max()),
}))
"""

VALIDATE_ONE_OVER_F = """
import json
import sys

from memphase.cli import RunConfig, cmd_validate

HEAVY = ("scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.sparse", "scipy.special")

cmd_validate(RunConfig(spectrum="one_over_f", mc_samples=2000))
print(json.dumps(sorted({m.split(".")[1] for m in sys.modules if m.startswith(HEAVY)})))
"""


def _run(script: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    return out.splitlines()[-1]


def test_closed_form_paths_load_no_heavy_scipy():
    result = json.loads(_run(SCRIPT))
    assert result["before"] == []
    # the Lorentzian time-domain route works and loads no scipy at all
    assert result["after"] == []
    assert result["dev_eta"] <= 1e-7
    assert result["dev_mu"] <= 1e-7


def test_one_over_f_validate_loads_only_scipy_special():
    assert json.loads(_run(VALIDATE_ONE_OVER_F)) == ["special"]

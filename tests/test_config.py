import math

import pytest
from numpy.testing import assert_allclose

from conftest import make_config


class TestSystemConfig:
    def test_baseline_passes(self):
        config = make_config()
        assert config.n_elements == 20
        assert config.kappa("br") == 3.0
        assert config.weights == {"u1d": 0.8, "u2d": 0.8,
                                  "u1u": 0.8, "u2u": 0.8}

    def test_tau_zero_rejected_with_limit_hint(self):
        with pytest.raises(ValueError, match="small positive tau"):
            make_config(tau=0.0)

    def test_tau_one_allowed(self):
        assert make_config(tau=1.0).tau == 1.0

    def test_noma_ordering_enforced(self):
        with pytest.raises(ValueError, match="alpha1 < alpha2"):
            make_config(alpha1=0.8, alpha2=0.2)
        with pytest.raises(ValueError, match="equal 1"):
            make_config(alpha1=0.3, alpha2=0.8)

    def test_field_ranges(self):
        with pytest.raises(ValueError):
            make_config(Xi=1.5)
        with pytest.raises(ValueError):
            make_config(beta=-1.0)
        with pytest.raises(ValueError):
            make_config(sigma_sq=0.0)
        with pytest.raises(ValueError):
            make_config(kappa_u2d=-0.1)
        with pytest.raises(ValueError):
            make_config(weight_u1u=-0.5)
        with pytest.raises(ValueError):
            make_config(n_elements=0)
        with pytest.raises(ValueError):
            make_config(R_dth=-1.0)
        with pytest.raises(ValueError, match="budget must be positive"):
            make_config(P_t=0.0)
        # The SIC and SI constants and the targets are the cell's alone.
        with pytest.raises(ValueError, match="Xi"):
            make_config(Xi=-0.1)
        with pytest.raises(ValueError, match="si_lambda"):
            make_config(si_lambda=-0.5)
        with pytest.raises(ValueError, match="target rates"):
            make_config(R_uth=-1.0)
        # NaN fails every comparison, so each range check must reject it.
        for field in ("kappa_br", "kappa_u2d", "weight_u1d", "beta",
                      "si_lambda", "R_dth", "R_uth", "P_t"):
            with pytest.raises(ValueError):
                make_config(**{field: math.nan})

    def test_infinite_power_budget_rejected(self):
        # The power split checks the same bound, so a cell it could not
        # split is refused when it is built.
        with pytest.raises(ValueError, match="positive and finite"):
            make_config(P_t=math.inf)

    def test_si_variance(self):
        config = make_config(beta=1e-3, si_lambda=0.8)
        assert_allclose(config.si_variance(800.0), 1e-3 * 800.0 ** 0.8,
                        rtol=1e-15)
        assert make_config().si_variance(800.0) == 0.0

    def test_unknown_link_rejected(self):
        with pytest.raises(ValueError, match="unknown link"):
            make_config().kappa("u3d")

"""The package's immutable records: construction, immutability, replace,
equality and hashing."""

import copy
import math
import pickle

import numpy as np
import pytest

from conftest import BASELINE_ANGLES, make_config
from starfd.channel import StarRisState, _los_vectors
from starfd.cli import ExperimentSpec, parse_spec_text
from starfd.config import CellGeometry, GeometryAngles, SystemConfig
from starfd.kernel import PowerConfig, RateReport
from starfd.optimize import (ConstraintCheck, ConstraintReport,
                             OptimizationResult, pgam)
from starfd.presets import preset_text
from starfd.rates_cf import (CfRateInputs, MomentSet, cf_rate_inputs,
                             cf_rates, compute_moments)
from starfd.rates_mc import ChannelBlock, draw_realization
from starfd.record import Frozen


def _records():
    """One instance of every record class, with an out-of-range change
    (field, value) for the classes whose constructor checks its fields."""
    config = make_config(n_elements=4)
    ris = StarRisState.uniform(4, phi_t=1.0)
    pw = PowerConfig.from_config(config)
    result = pgam(config, pw, ris, L=1)
    spec, _ = parse_spec_text(preset_text("default"))
    block = draw_realization(config, np.random.default_rng(0), 2)
    return {
        StarRisState: (ris, ("rho_r", np.full(4, 0.9))),
        GeometryAngles: (BASELINE_ANGLES, ("az_br", math.nan)),
        ChannelBlock: (block, None),
        SystemConfig: (config, ("tau", 2.0)),
        CellGeometry: (config.geometry, ("m", 2.0)),
        PowerConfig: (pw, ("p_b1", -1.0)),
        RateReport: (cf_rates(config, ris, pw), ("estimator", "guess")),
        MomentSet: (compute_moments(config, ris), None),
        CfRateInputs: (cf_rate_inputs(config, ris)["u1d"], ("x1", -1.0)),
        ConstraintCheck: (result.constraints.power_budget, None),
        ConstraintReport: (result.constraints, None),
        OptimizationResult: (result, ("reason", "bored")),
        ExperimentSpec: (spec, None),
    }


RECORDS = _records()


def _fields(record):
    return {name: getattr(record, name) for name in record.__slots__}


def _same(a, b):
    """Equal structure and values, whatever the records' own ``==``."""
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, Frozen):
        return type(a) is type(b) and _same(_fields(a), _fields(b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
class TestRecordSemantics:
    def test_positional_and_keyword_construction_agree(self, cls):
        record = RECORDS[cls][0]
        fields = _fields(record)
        assert _same(cls(*fields.values()), record)
        assert _same(cls(**fields), record)

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        record = RECORDS[cls][0]
        name = record.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert not hasattr(record, "__dict__")

    def test_replace_checks_like_the_constructor(self, cls):
        record, bad = RECORDS[cls]
        fields = _fields(record)
        copied = record.replace()
        assert copied is not record and _same(copied, record)
        with pytest.raises(TypeError):
            record.replace(no_such_field=1)
        if bad is None:
            return
        name, value = bad
        with pytest.raises(ValueError) as direct:
            cls(**{**fields, name: value})
        with pytest.raises(ValueError) as replaced:
            record.replace(**{name: value})
        assert str(replaced.value) == str(direct.value)

    def test_copy_and_pickle_keep_every_field(self, cls):
        record = RECORDS[cls][0]
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert _same(twin, record)


class TestEqualityAndHashing:
    def test_equal_angles_share_the_los_cache(self):
        twin = BASELINE_ANGLES.replace()
        assert twin is not BASELINE_ANGLES
        assert twin == BASELINE_ANGLES
        assert hash(twin) == hash(BASELINE_ANGLES)
        assert twin != BASELINE_ANGLES.replace(az_br=0.9)
        _los_vectors(7, BASELINE_ANGLES)
        hits = _los_vectors.cache_info().hits
        _los_vectors(7, twin)
        assert _los_vectors.cache_info().hits == hits + 1

    def test_value_records_compare_by_fields(self):
        config = make_config()
        assert config.replace(tau=0.5) == make_config(tau=0.5)
        assert config.replace(tau=0.5) != config
        assert config != config.geometry
        assert len({config, make_config(), make_config(tau=0.5)}) == 2

    def test_states_and_blocks_compare_by_identity(self):
        ris = RECORDS[StarRisState][0]
        assert ris == ris and ris != ris.replace()
        assert len({ris, ris.replace()}) == 2
        block = RECORDS[ChannelBlock][0]
        assert block != block.replace()

    def test_repr_lists_fields_in_order(self):
        assert repr(CellGeometry(50.0, 30.0, 60.0, 2.7)) == (
            "CellGeometry(R=50.0, R_r=30.0, d_br=60.0, m=2.7)")
        assert repr(CfRateInputs(1.0, 0.5, 0.25)) == (
            "CfRateInputs(x1=1.0, y1=0.5, y2=0.25)")


class TestUncheckedState:
    def test_off_segment_probe_needs_validate_false(self):
        probe = dict(rho_t=np.full(3, 0.9), rho_r=np.full(3, 0.9),
                     phi_t=np.zeros(3), phi_r=np.zeros(3))
        with pytest.raises(ValueError, match="energy-splitting"):
            StarRisState(**probe)
        state = StarRisState(**probe, validate=False)
        assert np.array_equal(state.rho_t + state.rho_r, np.full(3, 1.8))
        assert StarRisState(*probe.values(), False).n_elements == 3
        assert "validate" not in state.__slots__
        with pytest.raises(ValueError, match="energy-splitting"):
            state.replace()

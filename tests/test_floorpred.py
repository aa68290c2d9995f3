"""Floor prediction pipeline: jobs, curves, report serialization."""

import json

import numpy as np
import pytest

from errorfloor.channel import ChannelConfig
from errorfloor.floorpred import (
    PredictionJob,
    code_digest,
    load_job,
    predict_curve,
    predict_set,
    stats_from_capture,
    stats_from_dde,
)
from errorfloor.statespace import codeword_failure_probability
from errorfloor.tanner import ParityCheckMatrix, random_regular_code, save_alist

CW = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@pytest.fixture(scope="module")
def code():
    return random_regular_code(48, 3, 6, seed=5, planted=CW)


@pytest.fixture(scope="module")
def job(code):
    return PredictionJob(
        H=code, sets=((0, 1, 2, 3),), snr_grid=(2.6, 3.0), rate=0.5, horizon=6
    )


def test_code_digest_stable_and_sensitive(code):
    d1 = code_digest(code)
    assert len(d1) == 16 and int(d1, 16) >= 0
    rebuilt = ParityCheckMatrix([list(r) for r in code.chk_vars], code.n_vars)
    assert code_digest(rebuilt) == d1
    rows = [list(r) for r in code.chk_vars]
    rows[0][1], rows[1][1] = rows[1][1], rows[0][1]
    assert sorted(rows[0]) != sorted(code.chk_vars[0])
    assert code_digest(ParityCheckMatrix(rows, code.n_vars)) != d1


def test_stats_from_dde_fields():
    cfg = ChannelConfig(2.8, 0.5)
    stats = stats_from_dde(cfg, 3, 6, n_iters=5, saturation=25.0)
    assert stats.source == "dde"
    assert stats.d_c == 6
    assert stats.m_lambda == pytest.approx(cfg.mean_llr)
    assert stats.saturation == 25.0
    assert stats.n_iters == 5
    assert np.all(np.isfinite(stats.m_ex))
    assert np.all((stats.g_bar > 0) & (stats.g_bar <= 1.0 + 1e-12))


def test_codeword_prediction_matches_closed_form(code):
    cfg = ChannelConfig(2.8, 0.5)
    want = codeword_failure_probability(cfg, 4)
    for horizon in (4, 9):
        stats = stats_from_dde(cfg, 3, 6, n_iters=horizon, saturation=25.0)
        p = predict_set(code, 3, (0, 1, 2, 3), stats, horizon, 3)
        assert p.b == 0
        assert p.p_fail == pytest.approx(want, rel=1e-12)
        assert p.fer_contribution == p.p_fail
    p2 = predict_set(code, 3, (0, 1, 2, 3), stats, 9, 3, multiplicity=7)
    assert p2.fer_contribution == pytest.approx(7 * p2.p_fail)


def test_job_validation(code):
    with pytest.raises(ValueError):
        PredictionJob(H=code, sets=(), snr_grid=(2.0,), rate=0.5)
    with pytest.raises(ValueError):
        PredictionJob(
            H=code, sets=((0, 1, 2, 3),), snr_grid=(2.0,), rate=0.5,
            multiplicities=(1, 2),
        )
    with pytest.raises(ValueError):
        PredictionJob(H=code, sets=((0,),), snr_grid=(3.0, 2.0), rate=0.5)
    with pytest.raises(ValueError):
        PredictionJob(H=code, sets=((0,),), snr_grid=(2.0,), rate=0.5, source="x")
    with pytest.raises(ValueError):
        PredictionJob(H=code, sets=((0,),), snr_grid=(2.0,), rate=0.5, horizon=0)
    with pytest.raises(ValueError, match="capture_frames"):
        PredictionJob(H=code, sets=((0,),), snr_grid=(2.0,), rate=0.5, capture_frames=0)
    for sat in (0.0, -5.0):
        with pytest.raises(ValueError, match="positive"):
            PredictionJob(H=code, sets=((0,),), snr_grid=(2.0,), rate=0.5, saturation=sat)


def test_predict_curve_worker_invariance(job):
    one = predict_curve(job, workers=1)
    assert predict_curve(job, workers=2).to_dict() == one.to_dict()
    spa = PredictionJob(H=job.H, sets=job.sets, snr_grid=(2.6, 2.8, 3.0), rate=0.5,
                        horizon=3, source="spa", capture_frames=30, capture_seed=2)
    assert predict_curve(spa, workers=2).to_dict() == predict_curve(spa, workers=1).to_dict()
    with pytest.raises(ValueError, match="workers"):
        predict_curve(job, workers=0)


def test_report_serialization(job):
    rep = predict_curve(job)
    assert np.all(np.diff(rep.fer) < 0)  # floor falls with SNR
    assert np.all(rep.ber <= rep.fer)
    doc = json.loads(json.dumps(rep.to_dict()))
    assert doc["schema"] == "floor-prediction v1"
    assert len(doc["curve"]) == len(job.snr_grid)
    assert doc["job"]["code_id"] == job.code_id == code_digest(job.H)
    row = doc["breakdown"][0][0]
    assert row["a"] == 4 and row["b"] == 0
    assert row["fer_contribution"] == pytest.approx(rep.fer[0])


def test_load_job_round_trip(code, tmp_path):
    save_alist(code, tmp_path / "code.alist")
    (tmp_path / "sets.txt").write_text("# failure sets\n0 1 2 3\n0 1 2 3\n5 6\n")
    (tmp_path / "job.cfg").write_text(
        "code = code.alist\n"
        "sets = sets.txt\n"
        "snr = 2.6, 3.0\n"
        "saturation = none  # run unsaturated\n"
        "horizon = 6\n"
        "multiplicities = 1 1 2\n"
    )
    job = load_job(tmp_path / "job.cfg")
    assert job.H.n_vars == code.n_vars
    assert job.sets == ((0, 1, 2, 3), (0, 1, 2, 3), (5, 6))
    assert job.snr_grid == (2.6, 3.0)
    assert job.saturation is None
    assert job.rate == pytest.approx((code.n_vars - code.n_chks) / code.n_vars)
    assert job.multiplicities == (1, 1, 2)
    assert job.horizon == 6


def test_load_job_missing_key(tmp_path):
    (tmp_path / "bad.cfg").write_text("sets = sets.txt\nsnr = 2.0\n")
    with pytest.raises(ValueError, match="code"):
        load_job(tmp_path / "bad.cfg")
    (tmp_path / "bad2.cfg").write_text("just a line without equals\n")
    with pytest.raises(ValueError, match="key"):
        load_job(tmp_path / "bad2.cfg")


def test_load_job_defaults_and_key_checks(code, tmp_path):
    save_alist(code, tmp_path / "code.alist")
    (tmp_path / "sets.txt").write_text("0 1 2 3\n")
    head = "code = code.alist\nsets = sets.txt\nsnr = 2.6\n"
    (tmp_path / "job.cfg").write_text(head)
    job = load_job(tmp_path / "job.cfg")
    assert job == PredictionJob(H=job.H, sets=((0, 1, 2, 3),), snr_grid=(2.6,),
                                rate=(code.n_vars - code.n_chks) / code.n_vars)
    # the config-file vocabulary: off disables the clamp, 1e1 is an integer
    (tmp_path / "job.cfg").write_text(head + "saturation = off\nhorizon = 1e1\n")
    job = load_job(tmp_path / "job.cfg")
    assert job.saturation is None and job.horizon == 10
    # a misspelt key used to be ignored, leaving horizon at 20
    for line, msg in (("horizn = 5\n", "unknown job key 'horizn'"),
                      ("horizon = 2.5\n", "'horizon'"),
                      ("capture_seed = x\n", "'capture_seed'"),
                      ("multiplicities = 1.5\n", "'multiplicities'")):
        (tmp_path / "job.cfg").write_text(head + line)
        with pytest.raises(ValueError, match=msg):
            load_job(tmp_path / "job.cfg")


def test_stats_from_capture_smoke(code):
    cfg = ChannelConfig(2.0, 0.5)
    stats = stats_from_capture(code, cfg, n_iters=4, saturation=25.0, n_frames=20, seed=1)
    assert stats.source == "spa"
    assert stats.n_iters == 4
    assert np.all(np.isfinite(stats.m_ex))
    assert np.all(stats.var_ex >= 0)
    again = stats_from_capture(code, cfg, n_iters=4, saturation=25.0, n_frames=20, seed=1)
    np.testing.assert_array_equal(again.m_ex, stats.m_ex)


@pytest.mark.parametrize("kw", [{"n_frames": 0}, {"n_frames": -5}])
def test_stats_from_capture_rejects_empty_runs(code, kw):
    # n_frames 0 used to return statistics with no iterations
    with pytest.raises(ValueError, match="at least 1"):
        stats_from_capture(code, ChannelConfig(2.0, 0.5), n_iters=4, saturation=25.0, **kw)

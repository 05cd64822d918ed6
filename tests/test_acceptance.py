"""Acceptance suite: one test per criterion, each printing a PASS line.

Absolute accuracy numbers depend on the production image corpus and deep
feature extractors, neither of which this desk-scale artifact ships; the
criteria here are property-based substitutes: metric implementations
checked against independent brute-force oracles, recovery and robustness
checks on simulated populations with known ground truth, direction-of-effect
checks for the contrastive loss and user embeddings, and end-to-end
determinism of the CLI pipeline.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from equirank import scaling
from equirank.cli import _PIPELINE_DEFAULTS, _parse_experiment
from equirank.cli import main as cli_main
from equirank.dataset import split
from equirank.equity import build_report, gini, lorenz_curve, max_gap, std_dev
from equirank.gbt import GbtConfig, fit_users
from equirank.ltr import LossWeights, ModelParams, TrainConfig, predict_all, train
from equirank.robust import ResilienceParams, qr_med
from equirank.scaling import mehestan_scale, minmax_scale, normalization_scale
from equirank.simgen import SimConfig, generate
from gbt_oracle import by_item, expected_comparison, kernel_point
from ltr_oracle import loss, predict_diff, step_gradient
from row_view import Comparison, comparison_set, rows_of


def _report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


# --- metric oracles ------------------------------------------------------


def _brute_max_gap(v):
    best = 0.0
    for a in v:
        for b in v:
            best = max(best, a - b)
    return best


def _brute_std(v):
    n = len(v)
    mean = sum(v) / n
    total = 0.0
    for x in v:
        total += (x - mean) ** 2
    return (total / n) ** 0.5


def _brute_gini(v):
    n = len(v)
    mean = sum(v) / n
    total = 0.0
    for a in v:
        for b in v:
            total += abs(a - b)
    return total / (2.0 * n * n * mean)


def test_criterion_metric_oracles():
    """Eq. (1)/(2)/(3) match naive double-loop scripts on 1000 vectors, < 5 s."""
    rng = np.random.default_rng(1000)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        values = rng.uniform(0.01, 1.0, n)
        v = values.tolist()
        worst = max(
            worst,
            abs(max_gap(values) - _brute_max_gap(v)),
            abs(std_dev(values) - _brute_std(v)),
            abs(gini(values) - _brute_gini(v)),
        )
        assert abs(max_gap(values) - _brute_max_gap(v)) <= 1e-12
        assert abs(std_dev(values) - _brute_std(v)) <= 1e-12
        assert abs(gini(values) - _brute_gini(v)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("metric-oracles", f"worst deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_gini_lorenz_consistency():
    """gini(v) == 1 - 2 * trapezoidal Lorenz area within 1e-9, 100 vectors."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 50))
        values = rng.uniform(0.02, 1.0, n)
        points = lorenz_curve(values)
        area = np.trapezoid(points[:, 1], points[:, 0])
        deviation = abs(gini(values) - (1.0 - 2.0 * area))
        worst = max(worst, deviation)
        assert deviation <= 1e-9
    _report("gini-lorenz", f"worst deviation {worst:.2e}")


# --- GBT recovery and gradients ------------------------------------------


def test_criterion_gbt_recovery():
    """20 items, 1000 noise-free comparisons, lam 0.1: Spearman > 0.95, < 10 s."""
    rng = np.random.default_rng(42)
    items = [f"i{k:02d}" for k in range(20)]
    theta_true = rng.uniform(-1.5, 1.5, 20)
    lefts = rng.integers(0, 20, 1000)
    rights = rng.integers(0, 19, 1000)
    rights = rights + (rights >= lefts)
    rows = [
        ("u1", "g", items[l], items[r], expected_comparison(theta_true[r] - theta_true[l]))
        for l, r in zip(lefts, rights)
    ]
    start = time.perf_counter()
    fit = fit_users(comparison_set(rows), GbtConfig(lam=0.1))
    elapsed = time.perf_counter() - start
    fitted = np.array([by_item(fit)[i] for i in items])
    rho = spearmanr(fitted, theta_true).statistic
    assert rho > 0.95
    assert elapsed < 10.0
    _report("gbt-recovery", f"spearman {rho:.4f}, {elapsed:.2f}s")


def _relative_error(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-10)


def test_criterion_gbt_gradient_check():
    """GBT objective gradient vs central differences, 50 random instances."""
    rng = np.random.default_rng(1002)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        n_items = int(rng.integers(4, 10))
        items = [f"i{k}" for k in range(n_items)]
        rows = []
        for _ in range(int(rng.integers(10, 40))):
            l, r = rng.choice(n_items, size=2, replace=False)
            rows.append(("u1", "g", items[l], items[r], float(rng.uniform(-0.95, 0.95))))
        cset = comparison_set(rows)
        lam = float(rng.uniform(0.01, 1.0))
        # The objective and gradient a fit runs, over the sorted items.
        theta = rng.normal(scale=0.8, size=len(cset.item_ids))
        grad = kernel_point(cset, lam, theta)[1]
        fd = []
        for i in range(len(theta)):
            hi, lo = theta.copy(), theta.copy()
            hi[i] += h
            lo[i] -= h
            fd.append((kernel_point(cset, lam, hi)[0] - kernel_point(cset, lam, lo)[0]) / (2 * h))
        err = _relative_error(grad, np.array(fd))
        worst = max(worst, err)
        assert err < 1e-4
    _report("gbt-gradient", f"worst relative error {worst:.2e}")


def _ltr_fd_check(rng, weights, n_checks):
    config = TrainConfig(loss_weights=weights, embedding_l2=0.05)
    h = 1e-5
    worst = 0.0
    checked = 0
    while checked < n_checks:
        dim = int(rng.integers(2, 5))
        params = ModelParams(
            rng.normal(size=dim),
            ("u0", "u1"),
            np.array([rng.normal(size=dim) * 0.3 for _ in range(2)]),
        )
        batch = []
        for i in range(int(rng.integers(2, 7))):
            c = Comparison(f"u{rng.integers(0, 2)}", "g", f"l{i}", f"r{i}",
                           float(rng.uniform(-0.95, 0.95)))
            batch.append((c, rng.normal(size=dim), rng.normal(size=dim)))
        # Hinge terms are checked away from their kinks.
        near_kink = False
        for c, xl, xr in batch:
            d = predict_diff(params, c.user_id, xl, xr)
            if (
                abs(config.ranking_margin - np.sign(c.score) * d) < 1e-3
                or abs(config.contrastive_margin - abs(d)) < 1e-3
                or abs(d) < 1e-3
                or abs(abs(c.score) - config.tie_epsilon) < 1e-3
            ):
                near_kink = True
        if near_kink:
            continue
        grad_w, grad_off = step_gradient(params, batch, config)
        fd_w = np.zeros(dim)
        for j in range(dim):
            hi = ModelParams(params.w.copy(), params.user_ids, params.offsets.copy())
            lo = ModelParams(params.w.copy(), params.user_ids, params.offsets.copy())
            hi.w[j] += h
            lo.w[j] -= h
            fd_w[j] = (loss(hi, batch, config) - loss(lo, batch, config)) / (2 * h)
        err = _relative_error(grad_w, fd_w)
        for u, analytic in grad_off.items():
            fd_o = np.zeros(dim)
            for j in range(dim):
                hi = ModelParams(params.w.copy(), params.user_ids, params.offsets.copy())
                lo = ModelParams(params.w.copy(), params.user_ids, params.offsets.copy())
                hi.offsets[params.user_ids.index(u), j] += h
                lo.offsets[params.user_ids.index(u), j] -= h
                fd_o[j] = (loss(hi, batch, config) - loss(lo, batch, config)) / (2 * h)
            err = max(err, _relative_error(analytic, fd_o))
        assert err < 1e-4
        worst = max(worst, err)
        checked += 1
    return worst


@pytest.mark.parametrize(
    "name,weights",
    [
        ("mse", LossWeights(mse=1.0)),
        ("ranking", LossWeights(ranking=1.0)),
        ("bce", LossWeights(bce=1.0)),
        ("contrastive", LossWeights(contrastive=1.0)),
    ],
)
def test_criterion_ltr_gradient_check(name, weights):
    """Each loss term's gradient, as the trainer's step computes it, vs central
    differences of the oracle loss, 50 instances."""
    rng = np.random.default_rng(1003)
    worst = _ltr_fd_check(rng, weights, 50)
    _report(f"ltr-gradient-{name}", f"worst relative error {worst:.2e}")


# --- robustness -----------------------------------------------------------


def test_criterion_qrmed_resilience():
    """10 000 adversarial insertions move QrMed by at most 1/W."""
    rng = np.random.default_rng(1004)
    violations = 0
    for _ in range(10000):
        n = int(rng.integers(1, 15))
        x = rng.uniform(-10, 10, n)
        w = float(rng.choice([0.5, 1.0, 10.0]))
        params = ResilienceParams(weight=w)
        y = float(rng.choice([1e6, -1e6]))
        base = qr_med(x, params)
        moved = qr_med(np.append(x, y), params)
        # 1e-9 absorbs float rounding only; the bound itself is 1/W.
        if abs(moved - base) > 1.0 / w + 1e-9:
            violations += 1
    assert violations == 0
    _report("qrmed-resilience", "0 violations in 10000 trials")


def test_criterion_mehestan_affine_recovery():
    """theta_B = 2*theta_A + 3 on 30 shared items: common scale recovered."""
    rng = np.random.default_rng(42)
    items = [f"i{k:02d}" for k in range(30)]
    theta_a = rng.uniform(-1.0, 1.0, 30)
    theta_b = 2.0 * theta_a + 3.0
    rows = []
    for user, theta in (("uA", theta_a), ("uB", theta_b)):
        lefts = rng.integers(0, 30, 1000)
        rights = rng.integers(0, 29, 1000)
        rights = rights + (rights >= lefts)
        for l, r in zip(lefts, rights):
            rows.append((user, "g", items[l], items[r],
                         expected_comparison(theta[r] - theta[l])))
    _, affines, fits = mehestan_scale(comparison_set(rows))
    scale = dict(zip(affines.user_ids, affines.s.tolist()))
    relative_scale = scale["uA"] / scale["uB"]
    assert relative_scale == pytest.approx(2.0, rel=0.10)
    theta_scaled = {user: by_item(fits, user) for user in fits.user_ids}
    all_values = [v for th in theta_scaled.values() for v in th.values()]
    score_range = max(all_values) - min(all_values)
    worst = max(
        abs(theta_scaled["uA"][i] - theta_scaled["uB"][i]) for i in items
    )
    assert worst < 0.1 * score_range
    _report(
        "mehestan-recovery",
        f"relative scale {relative_scale:.3f}, max deviation {worst:.4f} "
        f"vs 0.1*range {0.1 * score_range:.4f}",
    )


def _poisoning_population(seed, include_malicious):
    """8 honest users sharing latent utilities plus one sign-flipping voter.

    Users score overlapping 18-item subsets of 30 items so that per-user
    latent fits have distinct gauges; with full overlap the malicious user's
    sign-flip would cancel out of every aggregate by symmetry.
    """
    n_items, subset, per_user = 30, 18, 150
    rng = np.random.default_rng(seed)
    items = [f"i{k:02d}" for k in range(n_items)]
    theta_star = rng.uniform(-2.0, 2.0, n_items)
    users = [f"h{k}" for k in range(8)] + (["zmal"] if include_malicious else [])
    rows = []
    for idx, user in enumerate(users):
        urng = np.random.default_rng([seed, 100 + (900 if user == "zmal" else idx)])
        sub = urng.choice(n_items, size=subset, replace=False)
        lefts = sub[urng.integers(0, subset, per_user)]
        rights = sub[urng.integers(0, subset, per_user)]
        keep = lefts != rights
        lefts, rights = lefts[keep], rights[keep]
        t = theta_star[rights] - theta_star[lefts] + urng.normal(0, 0.1, lefts.size)
        scores = np.clip(-t if user == "zmal" else t, -1, 1)
        rows.extend(
            (user, "g", items[l], items[r], float(s))
            for l, r, s in zip(lefts, rights, scores)
        )
    return comparison_set(rows)


def _plain_mean(values, params):
    return float(np.mean(values)) if len(values) else params.default


def test_criterion_poisoning_resistance(monkeypatch):
    """BrMean bounds the malicious voter's pull on honest affines; a plain
    mean in its place does strictly worse (fixture, seed 42)."""
    full = _poisoning_population(42, include_malicious=True)
    clean = _poisoning_population(42, include_malicious=False)
    honest = full.take(full.user != full.user_ids.index("zmal"))
    assert rows_of(honest) == rows_of(clean)

    def shift():
        a, b = mehestan_scale(full)[1], mehestan_scale(clean)[1]
        rows = [a.user_ids.index(u) for u in b.user_ids]
        return sum(abs(a.s[k] - s) + abs(a.tau[k] - tau)
                   for k, s, tau in zip(rows, b.s.tolist(), b.tau.tolist()))

    shifts = {"brmean": shift()}
    monkeypatch.setattr(scaling, "br_mean", _plain_mean)
    shifts["mean"] = shift()
    assert shifts["brmean"] < shifts["mean"]
    _report(
        "poisoning-resistance",
        f"honest affine shift {shifts['brmean']:.4f} (brmean) < "
        f"{shifts['mean']:.4f} (plain mean)",
    )


# --- direction-of-effect checks -------------------------------------------

STANDARD_SIM = SimConfig(
    n_items=30, feature_dim=4, n_users=8, comparisons_per_user=500,
    noise_std=0.1, archetype_mix={"neutral": 4, "conservative": 2, "extreme": 2},
    seed=42,
)


def test_criterion_contrastive_direction():
    """Contrastive weight 1.0 strictly increases mean |predicted diff|."""
    cset, features, _ = generate(STANDARD_SIM)
    train_set, _ = split(cset, 0.8, 42)
    means = {}
    for contrastive in (0.0, 1.0):
        config = TrainConfig(
            loss_weights=LossWeights(mse=1.0, contrastive=contrastive),
            learning_rate=0.1, epochs=30, batch_size=32, seed=42,
        )
        result = train(train_set, features, config)
        predictions = predict_all(result.params, train_set, features)
        means[contrastive] = float(np.mean([abs(d) for d in predictions.diff.tolist()]))
    assert means[1.0] > means[0.0]
    _report(
        "contrastive-direction",
        f"mean |diff| {means[0.0]:.4f} -> {means[1.0]:.4f}",
    )


def test_criterion_embedding_equity_direction():
    """On an opposed two-group population, user embeddings shrink the std
    of per-user accuracy (averaged over 5 seeds)."""
    stds = {True: [], False: []}
    for seed in range(5):
        sim = SimConfig(
            n_items=30, feature_dim=4, n_users=10, comparisons_per_user=500,
            noise_std=0.1, n_groups=2, opposed_groups=True, group_sizes=(7, 3),
            user_jitter=0.05, seed=seed,
        )
        cset, features, _ = generate(sim)
        train_set, test_set = split(cset, 0.8, seed)
        for embeddings in (True, False):
            config = TrainConfig(
                loss_weights=LossWeights(mse=1.0), learning_rate=0.1, epochs=30,
                batch_size=32, seed=seed, use_user_embeddings=embeddings,
                embedding_l2=1e-4,
            )
            result = train(train_set, features, config)
            report = build_report(predict_all(result.params, test_set, features), 0.05)
            stds[embeddings].append(report.acc_std)
    avg_with = float(np.mean(stds[True]))
    avg_without = float(np.mean(stds[False]))
    assert avg_with < avg_without
    _report(
        "embedding-equity",
        f"acc std {avg_without:.4f} (shared) -> {avg_with:.4f} (embeddings), 5 seeds",
    )


# --- scaler postconditions -------------------------------------------------

_score_lists = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=2, max_size=30
)


@given(scores=_score_lists)
@settings(max_examples=300, deadline=None)
def test_criterion_scaler_postconditions(scores):
    """Min-max attains both endpoints; normalization stays in [-1, 1] with a
    zero mean; degenerate users map to zero."""
    cset = comparison_set(
        [("u1", "g", "a", f"b{i}", s) for i, s in enumerate(scores)]
    )
    mm = minmax_scale(cset).score
    nm = normalization_scale(cset).score
    if max(scores) > min(scores):
        assert mm.min() == -1.0
        assert mm.max() == 1.0
        assert np.abs(nm).max() <= 1.0
        assert abs(nm.mean()) <= 1e-12
    else:
        assert np.all(mm == 0.0)
        assert np.all(nm == 0.0)


def test_criterion_scaler_postconditions_summary():
    _report("scaler-postconditions", "300 hypothesis examples")


# --- end-to-end determinism -------------------------------------------------

_TABLE_GRID = """\
seed = 42
users = 8
items = 25
dim = 4
per_user = 300
epochs = 15
experiment = baseline
experiment = contrastive
experiment = minmax
experiment = minmax+contrastive
experiment = normalization
experiment = normalization+contrastive
experiment = mehestan
experiment = mehestan+contrastive
experiment = embeddings
experiment = embeddings+contrastive
"""


def test_criterion_pipeline_determinism(tmp_path):
    """The 10-cell grid finishes quickly and reruns byte-identically."""
    config = tmp_path / "grid.cfg"
    config.write_text(_TABLE_GRID)
    start = time.perf_counter()
    digests = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert cli_main(["pipeline", "--config", str(config), "-o", str(out)]) == 0
        files = sorted(
            p.relative_to(out)
            for p in out.rglob("*")
            if p.is_file() and not p.name.startswith("manifest")
        )
        digests.append([(str(p), (out / p).read_bytes()) for p in files])
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    assert digests[0] == digests[1]
    summary = (tmp_path / "first" / "summary.csv").read_text().splitlines()
    assert len(summary) == 11  # header + 10 cells
    reports = list((tmp_path / "first").glob("report_*.json"))
    assert len(reports) == 10
    _report(
        "pipeline-determinism",
        f"two runs of 10 cells byte-identical, {elapsed:.1f}s total",
    )


# The pipeline's train keys, passed as `train` flags: `train`'s own defaults
# differ (epochs 50, contrastive_weight 0).
_TRAIN_FLAGS = (
    "mse_weight", "ranking_weight", "bce_weight", "ranking_margin", "contrastive_margin",
    "tie_epsilon", "learning_rate", "epochs", "batch_size", "seed", "embedding_l2",
)


def test_criterion_pipeline_equals_staged_chain(tmp_path):
    """`scale`, `train` and `audit`, run one at a time on the data files a
    grid wrote, with the pipeline's settings, give each cell's report."""
    config = tmp_path / "grid.cfg"
    config.write_text(_TABLE_GRID)
    grid = tmp_path / "grid"
    assert cli_main(["pipeline", "--config", str(config), "-o", str(grid)]) == 0
    data, d = grid / "data", _PIPELINE_DEFAULTS
    cells = [line.split("=")[1].strip() for line in _TABLE_GRID.splitlines()
             if line.startswith("experiment")]
    assert len(cells) == 10
    for cell in cells:
        scaler, contrastive, embeddings = _parse_experiment(cell)
        staged = tmp_path / cell.replace("+", "_")
        scaled = data / "train.csv"
        if scaler != "none":
            assert cli_main([
                "scale", "--input", str(scaled), "--scaler", scaler, "--lam", str(d["lam"]),
                "--tol", str(d["gbt_tol"]), "--max-iter", str(d["gbt_max_iter"]),
                "--resilience-weight", str(d["resilience_weight"]), "-o", str(staged / "scale"),
            ]) == 0
            scaled = staged / "scale" / "scaled.csv"
        flags = [f"--{key.replace('_', '-')}={d[key]}" for key in _TRAIN_FLAGS]
        flags.append(f"--contrastive-weight={d['contrastive_weight'] if contrastive else 0.0}")
        flags += ["--user-embeddings"] if embeddings else []
        assert cli_main(["train", "--input", str(scaled), "--features", str(data / "features.csv"),
                         *flags, "-o", str(staged / "model")]) == 0
        assert cli_main([
            "audit", "--model", str(staged / "model" / "model.json"),
            "--test", str(data / "test.csv"), "--features", str(data / "features.csv"),
            "--tie-epsilon", str(d["tie_epsilon"]), "-o", str(staged / "audit"),
        ]) == 0
        report = f"report_{cell.replace('+', '_')}.json"
        assert (staged / "audit" / "report.json").read_bytes() == (grid / report).read_bytes(), cell
    _report("pipeline-equals-staged-chain", f"{len(cells)} cells, every report byte-identical")

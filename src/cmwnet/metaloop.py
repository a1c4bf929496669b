"""Bi-level training engine: one loop serves every variant and transfer.

Each iteration after warmup forms the per-layer factors of one batched
forward and backward pass at the current classifier w (layer inputs a_j
and deltas d_j, sample j's gradient being outer(a_j, d_j)); per-sample
gradient matrices are never formed. While Theta learns, these factors give
a virtual SGD step weighted by the weighting net, a closed-form
hypergradient of the meta loss through it (the one-step update is linear
in the weights, so no tape is needed) and a weighting-net update. The real
classifier step then reuses the same factors with the refreshed weights.
The soft-label variant (EMA weights, temporal ensembling, mixup) differs
only in how it builds the factors. Transfer is the same loop with the
weighting net frozen, and ERM the same loop without one. Also houses the
per-epoch meta-set builder.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import metrics, numkit
from .biasgen import Dataset
from .config import ConfigError
from .models import Classifier, WeightNet, layer_views, summed_grad
from .numkit import Adam, SgdMomentum, onehot, softmax, spawn_rngs, xent
from .taskfam import FamilyIndex, kmeans_1d, n_distinct

MOMENTUM = 0.9               # the classifier's SGD momentum
# piecewise schedule: the rate is multiplied by LR_GAMMA once each of these
# fractions of the epochs has passed
MILESTONES, LR_GAMMA = (0.6, 0.8), 0.1
# soft-label variant: temporal-ensembling rate, EMA rate of the classifier
# that predicts the pseudo-labels, and the Beta(g, g) mixup parameter
ALPHA_TE, BETA_WA, SL_MIXUP = 0.9, 0.99, 1.0


# ---------------------------------------------------------------------------
# meta-set construction


def build_meta_set(ds: Dataset, clf: Classifier, per_class: int,
                   mixup: bool, rng: np.random.Generator):
    """Class-balanced trusted batch drawn from the training data, as
    (x [m, d], targets [m, C] soft rows).

    Picks the per_class samples with the smallest current cross-entropy
    loss per observed class. With mixup, pairs inside the batch are
    convexly combined (features and soft labels).
    """
    losses = clf.losses(ds.features, ds.observed_labels)
    picked = []
    for c in range(ds.C):
        members = np.where(ds.observed_labels == c)[0]
        if members.size < per_class:
            warnings.warn(f"class {c} has only {members.size} samples; "
                          f"taking all of them for the meta set")
            take = members
        else:
            take = members[np.argsort(losses[members], kind="stable")[:per_class]]
        picked.append(take)
    idx = np.concatenate(picked)
    x = ds.features[idx]
    targets = onehot(ds.observed_labels[idx], ds.C)
    if mixup:
        perm = rng.permutation(idx.size)
        lam = rng.beta(1.0, 1.0, size=idx.size)[:, None]
        x = lam * x + (1.0 - lam) * x[perm]
        targets = lam * targets + (1.0 - lam) * targets[perm]
    return x, targets


# ---------------------------------------------------------------------------
# weighted step and hypergradient, shared by every variant


@dataclass(eq=False)
class StepFactors:
    """The Theta-free parts of a weighted classifier step at fixed w.

    Row j adds w_j * outer(acts[l][j], deltas[l][j]) to layer l's weight
    gradient and w_j * deltas[l][j] to its bias gradient; w_j is the weight
    of (losses[j], fams[j]), over the batch sum if `normalize` (and that sum
    is nonzero). `fixed` is the unweighted rest laid out like
    Classifier.flat, or None.
    """
    acts: list[np.ndarray]
    deltas: list[np.ndarray]
    losses: np.ndarray
    fams: np.ndarray
    normalize: bool
    fixed: np.ndarray | None = None


@dataclass(eq=False)
class VirtualStepCache:
    factors: StepFactors
    v: np.ndarray            # (r,) raw head weights
    dv: np.ndarray           # (r, PTheta) d v_j / d Theta
    alpha: float
    wnet: WeightNet          # the net the step was taken with
    theta_flat: np.ndarray   # its Theta at that time, staleness guard


def _step_grads(f: StepFactors, v: np.ndarray, where: str) -> np.ndarray:
    """The step under raw weights v, laid out like Classifier.flat; raises
    FloatingPointError naming `where` if it is not finite."""
    s = v.sum()
    w = v / s if f.normalize and s != 0.0 else v
    grad = summed_grad(f.acts, f.deltas, w)
    if f.fixed is not None:
        grad += f.fixed
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError(f"non-finite gradient in {where}")
    return grad


def _factors(clf: Classifier, x: np.ndarray, targets: np.ndarray,
             fams: np.ndarray, normalize: bool) -> StepFactors:
    """Factors of the plain weighted step on (x, targets)."""
    losses, acts, deltas = clf.factors(x, targets)
    return StepFactors(acts, deltas, losses, fams, normalize)


def _virtual(clf: Classifier, wnet: WeightNet, f: StepFactors, alpha: float):
    v, dv = wnet.weight_and_grad(f.losses, f.fams)
    w_hat = _step_grads(f, v, "virtual step")
    w_hat *= -alpha      # w - alpha * grad, in the gradient's own buffer
    w_hat += clf.flat
    clf_hat = Classifier(clf.sizes, w_hat)
    return clf_hat, VirtualStepCache(f, v, dv, alpha, wnet, wnet.get_flat())


def virtual_step(clf: Classifier, wnet: WeightNet, x: np.ndarray,
                 targets: np.ndarray, fams: np.ndarray, alpha: float,
                 normalize: bool):
    """Tentative one-step update w_hat(Theta) = w - alpha * sum_j vtil_j g_j.

    In normalized mode vtil_j = v_j / sum(v); if the sum is zero the raw
    weights are used unchanged.
    """
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    return _virtual(clf, wnet, _factors(clf, x, targets, fams, normalize),
                    alpha)


def hypergrad(cache: VirtualStepCache, clf_hat: Classifier,
              meta_x: np.ndarray, meta_targets: np.ndarray):
    """Analytic gradient of the meta loss w.r.t. Theta through the one-step
    update, as a flat vector, plus the meta loss value at w_hat.

    Each weighted row contributes the alignment between its gradient and
    the meta batch's mean gradient at w_hat, times the weight's Theta
    sensitivity (quotient rule in normalized mode). Raises RuntimeError if
    the weighting net changed since the virtual step.
    """
    if not np.array_equal(cache.wnet.flat, cache.theta_flat):
        raise RuntimeError("stale cache: Theta changed since the virtual step")
    meta_loss, gbar = clf_hat.mean_grad(meta_x, meta_targets)
    f = cache.factors
    c = 0
    for a, d, gw, gb in zip(f.acts, f.deltas,
                            *layer_views(clf_hat.sizes, gbar)):
        t = a @ gw
        t *= d
        c = c + (t.sum(axis=1) + d @ gb)
    grad = c @ cache.dv
    s = cache.v.sum()
    if f.normalize and s != 0.0:
        grad = grad / s - ((c * cache.v).sum() / s ** 2) * cache.dv.sum(axis=0)
    grad *= -cache.alpha
    return grad, float(meta_loss)


def meta_update(wnet: WeightNet, optimizer, grad_flat: np.ndarray) -> None:
    """Apply one optimizer step to the weighting-net parameters."""
    if not np.all(np.isfinite(grad_flat)):
        raise FloatingPointError("non-finite hypergradient")
    optimizer.step(wnet.flat, grad_flat)


def classifier_update(clf: Classifier, optimizer, wnet: WeightNet,
                      f: StepFactors, alpha: float) -> np.ndarray:
    """Real classifier step on f with the weights at the current Theta.

    Returns the raw per-sample weights (for logging). With momentum 0 the
    result coincides with the virtual step at the same Theta.
    """
    v = wnet.weight(f.losses, f.fams)
    grad = _step_grads(f, v, "classifier update")
    optimizer.lr = alpha
    optimizer.step(clf.flat, grad)
    return v


def erm_update(clf: Classifier, optimizer, x: np.ndarray, targets: np.ndarray,
               alpha: float) -> float:
    """Plain mean-CE SGD step; returns the batch mean loss."""
    loss, grad = clf.mean_grad(x, targets)
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("non-finite gradient in erm step")
    optimizer.lr = alpha
    optimizer.step(clf.flat, grad)
    return loss


# ---------------------------------------------------------------------------
# soft-label (pseudo-label) variant


def ema_update(w_wa: Classifier, clf: Classifier) -> None:
    """w_wa <- BETA_WA * w_wa + (1 - BETA_WA) * w, in place."""
    w_wa.flat *= BETA_WA
    w_wa.flat += (1.0 - BETA_WA) * clf.flat


def temporal_ensemble(z_rows: np.ndarray, p_rows: np.ndarray) -> np.ndarray:
    """Convex blend (rate ALPHA_TE) of stored ensembled predictions with
    fresh ones, row-renormalized; both are probability rows."""
    z = ALPHA_TE * z_rows + (1.0 - ALPHA_TE) * p_rows
    return z / z.sum(axis=1, keepdims=True)


def _sl_factors(clf: Classifier, x_mix: np.ndarray, y_a: np.ndarray,
                z_a: np.ndarray, y_b: np.ndarray, z_b: np.ndarray,
                fams_a: np.ndarray, fams_b: np.ndarray,
                lam: float) -> StepFactors:
    """Soft-label step factors from one forward pass on the mixup batch.

    Per sample the step's logit gradient is
      lam (p - z_a + vA (z_a - y_a)) + (1-lam) (p - z_b + vB (z_b - y_b)),
    and the step is its mean over the n samples. The backward pass is
    linear in it, so the rows scaled by vA and vB (2n of them, one per
    mixup partner) carry lam (z_a - y_a) / n and (1-lam) (z_b - y_b) / n,
    and the remainder is the fixed part.
    """
    acts = clf.forward_cached(x_mix)
    n, C = acts[-1].shape
    t_a, t_b = onehot(y_a, C), onehot(y_b, C)
    (loss_a, _), (loss_b, _) = xent(acts[-1], t_a), xent(acts[-1], t_b)
    p = softmax(acts[-1])
    fixed_deltas = clf.backward(
        acts, (lam * (p - z_a) + (1.0 - lam) * (p - z_b)) / n)
    fixed = summed_grad(acts, fixed_deltas)
    rows = np.concatenate([lam * (z_a - t_a), (1.0 - lam) * (z_b - t_b)]) / n
    doubled = [np.concatenate([a, a]) for a in acts[:-1]]
    return StepFactors(doubled, clf.backward(doubled, rows),
                       np.concatenate([loss_a, loss_b]),
                       np.concatenate([fams_a, fams_b]), False, fixed)


def sl_virtual_step(clf: Classifier, wnet: WeightNet, x_mix: np.ndarray,
                    y_a: np.ndarray, z_a: np.ndarray, y_b: np.ndarray,
                    z_b: np.ndarray, fams_a: np.ndarray, fams_b: np.ndarray,
                    lam: float, alpha: float):
    """Virtual step of the soft-label objective on a mixup batch.

    The descent direction is the batch mean of
      lam   * [ vA * dCE(y_a) + (1-vA) * dCE(z_a) ]
    + (1-lam) * [ vB * dCE(y_b) + (1-vB) * dCE(z_b) ],
    with vA = head(loss against y_a), vB = head(loss against y_b), both
    evaluated at the mixed input.
    """
    f = _sl_factors(clf, x_mix, y_a, z_a, y_b, z_b, fams_a, fams_b, lam)
    return _virtual(clf, wnet, f, alpha)


# ---------------------------------------------------------------------------
# training state and drivers


@dataclass
class TrainState:
    clf: Classifier
    wnet: WeightNet | None
    fam: FamilyIndex | None
    clf_opt: SgdMomentum
    theta_opt: Adam | None
    w_wa: Classifier | None = None
    z: np.ndarray | None = None
    t: int = 0
    final_report: dict = field(default_factory=dict)
    logger: MetricLogger | None = None
    test_report: metrics.MetricsReport | None = None  # at the final classifier
    train_losses: np.ndarray | None = None  # final, if weighted

    @property
    def history(self) -> list[dict]:  # the metric rows, built on access
        return list(self.logger.rows()) if self.logger is not None else []


def _schedule_lr(sched: dict, base_lr: float, epoch: int, t: int,
                 total_epochs: int) -> float:
    kind = sched["kind"]
    if kind == "piecewise":
        lr = base_lr
        for frac in MILESTONES:
            if epoch >= frac * total_epochs:
                lr *= LR_GAMMA
        return lr
    if kind == "decay":
        return min(base_lr, base_lr / np.sqrt(max(t, 1)))
    raise ValueError(f"unknown schedule kind {kind!r}")


class MetricLogger:
    """Per-iteration metric rows in one float64 table; unlogged cells: nan."""

    def __init__(self, K: int, size: int):
        self.columns = (["iteration", "epoch", "train_loss", "meta_loss",
                         "test_acc"] + [f"family_weight_{k}" for k in range(K)]
                        + ["hypergrad_norm"])
        self.table = np.empty((size, len(self.columns)))
        self.n = 0

    def log(self, **kw):
        self.table[self.n] = [kw.get(c, np.nan) for c in self.columns]
        self.n += 1

    def rows(self):
        """Each logged row as a dict; iteration and epoch are ints."""
        for row in self.table[:self.n]:
            it, epoch, *rest = row.tolist()
            yield dict(zip(self.columns, [int(it), int(epoch)] + rest))

    def write_csv(self, path) -> None:
        fmt = ["%d", "%d"] + ["%.10g"] * (len(self.columns) - 2)
        numkit.write_csv(path, self.columns, self.table[:self.n], fmt)


def _family_means(v: np.ndarray, fams: np.ndarray, K: int) -> dict:
    out = {}
    for k in range(K):
        sel = fams == k
        out[f"family_weight_{k}"] = float(v[sel].mean()) if sel.any() else float("nan")
    return out


def meta_train(ds: Dataset, cfg, test_ds: Dataset | None = None,
               seed: int = 0) -> TrainState:
    """Full meta-training run; cfg is a resolved ExperimentConfig.

    Handles the erm / mwnet / cmwnet / cmwnet-sl variants. Emits one metric
    row per iteration into state.history and a summary into
    state.final_report.
    """
    variant = cfg.train.variant
    # stream 4 is unused: dropping it would change rng_sl's seed
    rng_init_clf, rng_init_wn, rng_order, rng_meta, _, rng_sl = \
        spawn_rngs(seed, 6)

    clf = Classifier.init([ds.d] + list(cfg.model.hidden) + [ds.C], rng_init_clf)
    fam = wnet = theta_opt = None
    if variant != "erm":
        fam = kmeans_1d(ds.class_counts(), cfg.model.K)
        wnet = WeightNet.init(fam.K, rng_init_wn, hidden=cfg.model.H)
        theta_opt = Adam(cfg.train.theta_lr,
                         weight_decay=cfg.train.theta_weight_decay)
    clf_opt = SgdMomentum(cfg.train.lr, MOMENTUM, cfg.train.weight_decay)
    state = TrainState(clf=clf, wnet=wnet, fam=fam, clf_opt=clf_opt,
                       theta_opt=theta_opt)
    if variant == "cmwnet-sl":
        state.z = onehot(ds.observed_labels, ds.C)
        state.w_wa = Classifier(clf.sizes, np.zeros_like(clf.flat))
    return _train(state, ds, cfg, test_ds, rng_order, rng_meta, rng_sl)


def meta_test(wnet: WeightNet | None, query_ds: Dataset, cfg,
              test_ds: Dataset | None = None, seed: int = 0) -> TrainState:
    """Transfer: re-cluster the query dataset's class sizes, then train a
    fresh classifier under the frozen weighting net (no meta updates).

    wnet=None (or a weight net pinned at 1 upstream) reduces to plain ERM.
    """
    rng_init_clf, rng_order = spawn_rngs(seed, 2)
    fam = None
    if wnet is not None:
        sizes = n_distinct(query_ds.class_counts())
        if sizes < wnet.K:
            raise ConfigError(
                f"weight net has {wnet.K} heads but the query's class sizes "
                f"take only {sizes} distinct values")
        fam = kmeans_1d(query_ds.class_counts(), wnet.K)
    clf = Classifier.init([query_ds.d] + list(cfg.model.hidden) + [query_ds.C],
                          rng_init_clf)
    clf_opt = SgdMomentum(cfg.train.lr, MOMENTUM, cfg.train.weight_decay)
    state = TrainState(clf=clf, wnet=wnet, fam=fam, clf_opt=clf_opt,
                       theta_opt=None)
    return _train(state, query_ds, cfg, test_ds, rng_order)


def _train(state: TrainState, ds: Dataset, cfg, test_ds: Dataset | None,
           rng_order, rng_meta=None, rng_sl=None) -> TrainState:
    """The training loop of every variant and of transfer.

    Without a weighting net every step is plain ERM; with one, the epochs
    after warmup take weighted steps. Theta learns from the meta set only
    if state.theta_opt is set, and stays frozen otherwise; a learning run
    carrying ensembled targets (state.z) takes the soft-label step.
    """
    cfg.validate()
    clf, wnet, tc = state.clf, state.wnet, cfg.train
    # no family index (no weighting net): no family columns
    K = state.fam.K if state.fam is not None else 0
    fams_all = None
    if state.fam is not None:
        fams_all = state.fam.class_to_family[ds.observed_labels]
    n = ds.n
    batch = min(tc.batch_size, n)
    iters_per_epoch = int(np.ceil(n / batch))
    state.logger = MetricLogger(K, tc.epochs * iters_per_epoch)
    test_acc = float("nan")
    if test_ds is not None:
        state.test_report = metrics.evaluate(clf, test_ds)
        test_acc = state.test_report.accuracy

    for epoch in range(tc.epochs):
        weighted = wnet is not None and epoch >= tc.warmup_epochs
        if weighted and state.theta_opt is not None:
            meta_x, meta_t = build_meta_set(ds, clf, tc.meta_per_class,
                                            tc.mixup_meta, rng_meta)
            m = meta_x.shape[0]
        order = rng_order.permutation(n)
        for it in range(iters_per_epoch):
            idx = order[it * batch:(it + 1) * batch]
            x = ds.features[idx]
            y = ds.observed_labels[idx]
            alpha = _schedule_lr(tc.schedule, tc.lr, epoch, state.t, tc.epochs)
            meta_loss = hg_norm = float("nan")
            if not weighted:
                train_loss = erm_update(clf, state.clf_opt, x, y, alpha)
                fam_w = {}  # the family cells read nan
            else:
                fams = fams_all[idx]
                if state.theta_opt is None:
                    f = _factors(clf, x, y, fams, True)
                elif state.z is None:
                    clf_hat, cache = virtual_step(clf, wnet, x, y, fams, alpha,
                                                  True)
                else:
                    sl = _sl_batch(state, idx, x, y, fams, rng_sl)
                    clf_hat, cache = sl_virtual_step(clf, wnet, *sl, alpha)
                if state.theta_opt is not None:
                    f = cache.factors
                    # the whole meta set, in a fresh order
                    midx = rng_meta.choice(m, size=m, replace=False)
                    hg, meta_loss = hypergrad(cache, clf_hat, meta_x[midx],
                                              meta_t[midx])
                    del clf_hat, cache  # free dv before the next is built
                    state.theta_opt.lr = (
                        _schedule_lr(tc.schedule, tc.theta_lr, epoch, state.t,
                                     tc.epochs)
                        if tc.schedule["kind"] == "decay" else tc.theta_lr)
                    meta_update(wnet, state.theta_opt, hg)
                    hg_norm = float(np.linalg.norm(hg))
                v = classifier_update(clf, state.clf_opt, wnet, f, alpha)
                # the pre-step batch mean CE, as erm_update returns it
                train_loss = f.losses[:idx.size].mean()
                fam_w = _family_means(v[:idx.size], fams, K)
                del f  # likewise the factors
            state.logger.log(iteration=state.t, epoch=epoch,
                             train_loss=float(train_loss), meta_loss=meta_loss,
                             test_acc=test_acc, hypergrad_norm=hg_norm, **fam_w)
            state.t += 1
        if test_ds is not None:
            state.test_report = metrics.evaluate(clf, test_ds)
            test_acc = state.test_report.accuracy

    state.final_report = {"test_acc": float(test_acc), "iterations": state.t}
    if wnet is not None:
        state.train_losses = clf.losses(ds.features, ds.observed_labels)
        v = wnet.weight(state.train_losses, fams_all)
        noisy = ds.noisy_mask()
        state.final_report["mean_weight"] = float(v.mean())
        if noisy.any() and (~noisy).any():
            state.final_report["noisy_mean_weight"] = float(v[noisy].mean())
            state.final_report["clean_mean_weight"] = float(v[~noisy].mean())
    return state


def _sl_batch(state: TrainState, idx, x, y, fams, rng):
    """Soft-label bookkeeping of one batch, then its mixup inputs.

    Refreshes the EMA classifier and the batch's ensembled targets, draws
    the mixup pairing and returns sl_virtual_step's batch arguments.
    """
    ema_update(state.w_wa, state.clf)
    p = state.w_wa.forward(x)
    state.z[idx] = temporal_ensemble(state.z[idx], p)
    lam = float(rng.beta(SL_MIXUP, SL_MIXUP))
    lam = max(lam, 1.0 - lam)
    perm = rng.permutation(idx.size)
    x_mix = lam * x + (1.0 - lam) * x[perm]
    z = state.z[idx]
    return x_mix, y, z, y[perm], z[perm], fams, fams[perm], lam

import math
from itertools import permutations

import numpy as np
import pytest

from sepformer import ndkernel as nd
from sepformer.gradcheck import check_gradients
from sepformer.ndkernel import Tape, Tensor
from sepformer.objectives import (PLATEAU_PATIENCE, SISNR_TAU, OptimState,
                                  PlateauScheduler, TRACE_HEADER,
                                  TrainingDivergedError,
                                  UndefinedTargetError, adam_step,
                                  clip_gradients, init_optim_state, pit_loss,
                                  si_snr, si_snr_db, si_snr_improvement,
                                  train_toy, write_trace)


def brute_force_pit(estimates, targets):
    """Independent search: score every assignment with si_snr_db."""
    ns = len(estimates)
    matrix = np.array([[si_snr_db(e, t) for t in targets]
                       for e in estimates])
    best_perm, best = None, -np.inf
    for perm in permutations(range(ns)):
        mean = matrix[range(ns), perm].mean()
        if mean > best:
            best, best_perm = mean, perm
    return best_perm, best


def reference_si_snr(estimate, target):
    """SI-SNR in dB along the last axis, in plain numpy; complex inputs
    carry a complex-step perturbation through unchanged."""
    e0 = estimate - estimate.mean(axis=-1, keepdims=True)
    s0 = target - target.mean(axis=-1, keepdims=True)
    proj = s0 * ((e0 * s0).sum(axis=-1, keepdims=True)
                 / (s0 * s0).sum(axis=-1, keepdims=True))
    resid = e0 - proj
    proj_energy = (proj * proj).sum(axis=-1)
    resid_energy = (resid * resid).sum(axis=-1) + SISNR_TAU * proj_energy
    return 10.0 / math.log(10.0) * (np.log(proj_energy) - np.log(resid_energy))


def reference_si_snr_gradients(estimate, target):
    """Gradients of :func:`reference_si_snr` to both inputs by
    complex-step differentiation: the derivative along entry k is the
    imaginary part of f(x + i*step*e_k) over step, free of cancellation.
    Perturbed copies are evaluated 256 at a time."""
    step = 1e-30
    grads = []
    for which in (0, 1):
        x = (estimate, target)[which]
        g = np.empty(x.size)
        for lo in range(0, x.size, 256):
            rows = np.arange(lo, min(lo + 256, x.size))
            pert = np.tile(x.astype(complex), (rows.size, 1))
            pert[np.arange(rows.size), rows] += 1j * step
            args = [estimate, target]
            args[which] = pert
            g[rows] = reference_si_snr(*args).imag / step
        grads.append(g)
    return grads


def reference_clip(grads, max_norm):
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm and total > 0.0:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


def reference_adam(params, grads, state, t):
    """Per-tensor Adam over dict accumulators ``state`` (name -> (m, v))."""
    b1, b2, lr, eps = 0.9, 0.999, state["lr"], 1e-8
    for name, tensor in params.items():
        g = grads[name]
        m, v = state[name]
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        state[name] = m, v
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        tensor.data[...] -= lr * mhat / (np.sqrt(vhat) + eps)


def si_snr_pairs(rng):
    """Random, near-ceiling, and scaled or offset (estimate, target) pairs."""
    pairs = []
    for n in (16, 100, 2000):
        s = rng.standard_normal(n)
        pairs.append((rng.standard_normal(n), s))
        pairs.append((s + 0.3 * rng.standard_normal(n), s))
        pairs.append((s + 1e-6 * rng.standard_normal(n), s))
        pairs.append((-7.5 * (s + 0.1 * rng.standard_normal(n)) + 40.0,
                      1e-3 * s - 2.0))
    return pairs


class TestSiSnrMatchesReference:
    def test_values_match(self, rng):
        for e, s in si_snr_pairs(rng):
            want = reference_si_snr(e, s).item()
            assert abs(si_snr_db(e, s) - want) <= 1e-12 * abs(want)

    def test_gradients_to_both_inputs_match(self, rng):
        for e, s in si_snr_pairs(rng):
            et, st = Tensor(e), Tensor(s)
            with Tape() as tape:
                got = tape.gradient(si_snr(et, st), [et, st])
            want = reference_si_snr_gradients(e, s)
            for g, w in zip(got, want):
                scale = np.abs(w).max()
                assert np.abs(g - w).max() <= 1e-9 * scale

    def test_one_tape_record(self, rng):
        with Tape() as tape:
            si_snr(rng.standard_normal(50), rng.standard_normal(50))
            assert len(tape._records) == 1

    @pytest.mark.parametrize("ns", [1, 2, 3])
    def test_pit_loss_records_ns_squared_plus_one(self, rng, ns):
        targets = [rng.standard_normal(40) for _ in range(ns)]
        estimates = [Tensor(rng.standard_normal(40)) for _ in range(ns)]
        with Tape() as tape:
            pit_loss(estimates, targets)
            assert len(tape._records) == ns * ns + 1

    @pytest.mark.parametrize("ns", [1, 2, 3])
    def test_pit_loss_is_bit_identical_to_the_op_chain(self, rng, ns):
        # the winning pairs summed by ``add`` and times -1/ns by ``mul``
        targets = [Tensor(rng.standard_normal(40)) for _ in range(ns)]
        estimates = [Tensor(rng.standard_normal(40)) for _ in range(ns)]
        sources = estimates + targets
        with Tape() as tape:
            loss, pit = pit_loss(estimates, targets)
            got = tape.gradient(loss, sources)
        with Tape() as tape:
            pairs = [si_snr(estimates[i], targets[j])
                     for i, j in enumerate(pit.permutation)]
            total = pairs[0]
            for pair in pairs[1:]:
                total = nd.add(total, pair)
            chain = nd.mul(total, Tensor(-1.0 / ns))
            want = tape.gradient(chain, sources)
        np.testing.assert_array_equal(loss.data, chain.data)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


class TestSiSnr:
    def test_perfect_estimate_hits_soft_ceiling(self, rng):
        s = rng.standard_normal(200)
        assert abs(si_snr_db(s, s) - 30.0) < 1e-9

    def test_never_exceeds_ceiling(self, rng):
        for _ in range(50):
            t = rng.standard_normal(64)
            e = t + rng.standard_normal(64) * rng.uniform(0, 2)
            assert si_snr_db(e, t) <= 30.0 + 1e-9

    def test_orthogonal_noise_at_equal_energy_is_zero_db(self, rng):
        t = rng.standard_normal(400)
        t -= t.mean()
        n = rng.standard_normal(400)
        n -= n.mean()
        n -= (n @ t) / (t @ t) * t          # exactly orthogonal to target
        n *= np.linalg.norm(t) / np.linalg.norm(n)
        assert abs(si_snr_db(t + n, t)) < 0.01

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
    def test_target_scale_invariance(self, rng, alpha):
        t = rng.standard_normal(100)
        e = t + 0.1 * rng.standard_normal(100)
        assert abs(si_snr_db(e, alpha * t) - si_snr_db(e, t)) < 1e-9

    @pytest.mark.parametrize("beta", [0.5, 2.0, 10.0])
    def test_estimate_scale_invariance(self, rng, beta):
        t = rng.standard_normal(100)
        e = t + 0.3 * rng.standard_normal(100)
        assert abs(si_snr_db(beta * e, t) - si_snr_db(e, t)) < 1e-9

    def test_zero_energy_target_rejected(self, rng):
        with pytest.raises(UndefinedTargetError):
            si_snr(rng.standard_normal(10), np.zeros(10))
        with pytest.raises(UndefinedTargetError):
            si_snr(rng.standard_normal(10), np.full(10, 3.3))

    def test_gradient_matches_finite_differences(self, rng):
        e = Tensor(rng.standard_normal(32))
        t = Tensor(rng.standard_normal(32))
        assert check_gradients(lambda: si_snr(e, t), [e, t]) < 1e-4

    def test_zero_mean_applied_internally(self, rng):
        t = rng.standard_normal(100)
        e = t + 0.2 * rng.standard_normal(100)
        assert abs(si_snr_db(e + 5.0, t - 3.0) - si_snr_db(e, t)) < 1e-9


class TestPit:
    def test_identity_on_diagonal_dominant_pairs(self, rng):
        t1, t2 = rng.standard_normal(100), rng.standard_normal(100)
        loss, result = pit_loss([t1, t2], [t1, t2])
        assert result.permutation == (0, 1)
        assert abs(loss.item() + 30.0) < 1e-9
        assert abs(result.mean_db - 30.0) < 1e-9

    def test_swapped_estimates_pick_swap(self, rng):
        t1, t2 = rng.standard_normal(100), rng.standard_normal(100)
        loss, result = pit_loss([t2, t1], [t1, t2])
        assert result.permutation == (1, 0)
        assert abs(loss.item() + 30.0) < 1e-9

    def test_three_sources_match_brute_force(self, rng):
        targets = [rng.standard_normal(80) for _ in range(3)]
        estimates = [rng.standard_normal(80) for _ in range(3)]
        loss, result = pit_loss(estimates, targets)
        perm, best = brute_force_pit(estimates, targets)
        assert result.permutation == perm
        assert abs(-loss.item() - best) < 1e-12

    @pytest.mark.parametrize("ns", [1, 2, 3])
    def test_hundred_random_instances_match_brute_force(self, ns):
        rng = np.random.default_rng(314)
        for _ in range(100):
            targets = [rng.standard_normal(40) for _ in range(ns)]
            estimates = [rng.standard_normal(40) for _ in range(ns)]
            loss, result = pit_loss(estimates, targets)
            perm, best = brute_force_pit(estimates, targets)
            assert result.permutation == perm
            assert abs(-loss.item() - best) < 1e-12

    def test_mismatched_counts_rejected(self, rng):
        with pytest.raises(ValueError):
            pit_loss([rng.standard_normal(10)],
                     [rng.standard_normal(10), rng.standard_normal(10)])

    def test_loss_invariant_to_target_relabeling(self, rng):
        targets = [rng.standard_normal(60) for _ in range(3)]
        estimates = [t + 0.3 * rng.standard_normal(60) for t in targets]
        loss_a, pit_a = pit_loss(estimates, targets)
        loss_b, pit_b = pit_loss(estimates, targets[::-1])
        assert abs(loss_a.item() - loss_b.item()) < 1e-12
        # the chosen assignment compensates for the relabeling
        assert pit_b.permutation == tuple(2 - pit_a.permutation[i]
                                          for i in range(3))

    def test_ties_break_to_lexicographically_smallest(self, rng):
        t = rng.standard_normal(50)
        # identical estimates and targets: every assignment scores 30 dB
        _, result = pit_loss([t, t.copy()], [t.copy(), t.copy()])
        assert result.permutation == (0, 1)

    def test_gradient_at_stable_assignment(self, rng):
        targets = [Tensor(rng.standard_normal(24)) for _ in range(2)]
        est = [Tensor(t.data + 0.05 * rng.standard_normal(24))
               for t in targets]
        _, result = pit_loss(est, targets)
        matrix = np.array([[si_snr_db(e, t) for t in targets] for e in est])
        diag = matrix[range(2), result.permutation].mean()
        off = matrix[range(2), result.permutation[::-1]].mean()
        assert diag - off >= 1.0   # winner is strict, loss locally smooth
        err = check_gradients(lambda: pit_loss(est, targets)[0],
                              est + targets)
        assert err < 1e-4


def improvement(mixture, estimates, targets):
    """SI-SNRi of ``estimates`` under their own permutation search."""
    return si_snr_improvement(mixture, targets,
                              pit_loss(estimates, targets)[1])


class TestImprovement:
    def test_mixture_as_estimate_gives_zero(self, rng):
        t1, t2 = rng.standard_normal(100), rng.standard_normal(100)
        mix = t1 + t2
        assert abs(improvement(mix, [mix, mix], [t1, t2])) < 1e-9

    def test_perfect_estimates_reach_ceiling_gap(self, rng):
        t1, t2 = rng.standard_normal(100), rng.standard_normal(100)
        mix = t1 + t2
        value = improvement(mix, [t1, t2], [t1, t2])
        baseline = np.mean([si_snr_db(mix, t1), si_snr_db(mix, t2)])
        assert abs(value - (30.0 - baseline)) < 1e-9

    def test_invariant_to_global_mixture_gain(self, rng):
        t1, t2 = rng.standard_normal(100), rng.standard_normal(100)
        e1 = t1 + 0.2 * rng.standard_normal(100)
        e2 = t2 + 0.2 * rng.standard_normal(100)
        a = improvement(t1 + t2, [e1, e2], [t1, t2])
        b = improvement(3.0 * (t1 + t2), [e1, e2], [t1, t2])
        assert abs(a - b) < 1e-9


class TestOptimizer:
    def test_zero_gradient_leaves_parameters_fixed(self, rng):
        p = {"w": Tensor(rng.standard_normal((3, 3)))}
        before = p["w"].data.copy()
        state = init_optim_state(p, lr=1e-3)
        adam_step(p, {"w": np.zeros((3, 3))}, state)
        np.testing.assert_array_equal(p["w"].data, before)

    def test_constant_gradient_step_approaches_lr_sign(self, rng):
        p = {"w": Tensor(np.zeros(4))}
        g = np.array([1.0, -2.0, 0.5, -0.25])
        state = init_optim_state(p, lr=1e-3)
        for _ in range(2000):
            prev = p["w"].data.copy()
            adam_step(p, {"w": g.copy()}, state)
        step = p["w"].data - prev
        np.testing.assert_allclose(step, -1e-3 * np.sign(g), rtol=1e-3)

    def test_flat_adam_matches_per_tensor_reference_bit_for_bit(self, rng):
        shapes = {"w": (5, 3), "b": (5,), "f": (2, 1, 4), "s": (1,)}
        start = {k: rng.standard_normal(shp) for k, shp in shapes.items()}
        params = {k: Tensor(a.copy()) for k, a in start.items()}
        ref_params = {k: Tensor(a.copy()) for k, a in start.items()}
        state = init_optim_state(params, lr=1e-2)
        ref_state = {k: (np.zeros(shp), np.zeros(shp))
                     for k, shp in shapes.items()}
        ref_state["lr"] = 1e-2
        clipped = 0
        for t in range(1, 51):
            grads = {k: rng.standard_normal(shp) * rng.uniform(0.1, 4.0)
                     for k, shp in shapes.items()}
            ref_grads = {k: g.copy() for k, g in grads.items()}
            norm = clip_gradients(grads, 5.0)
            assert norm == reference_clip(ref_grads, 5.0)
            clipped += norm > 5.0
            adam_step(params, grads, state)
            reference_adam(ref_params, ref_grads, ref_state, t)
        assert 0 < clipped < 50
        for k in shapes:
            assert params[k].data.tobytes() == ref_params[k].data.tobytes()

    def test_state_of_another_size_rejected(self, rng):
        p = {"w": Tensor(rng.standard_normal((3, 3)))}
        state = init_optim_state({"w": Tensor(np.zeros(8))}, lr=1e-3)
        with pytest.raises(ValueError,
                           match="8 / 8 moment entries, the parameters 9"):
            adam_step(p, {"w": np.zeros((3, 3))}, state)
        assert state.step == 0

    def test_clip_rescales_to_max_norm(self):
        grads = {"a": np.full(25, 10.0 / 5.0 * 5.0)}   # norm 50
        grads = {"a": np.full(25, 10.0)}               # norm sqrt(25*100)=50
        norm = clip_gradients(grads, 5.0)
        assert abs(norm - 50.0) < 1e-12
        total = math.sqrt(float((grads["a"] ** 2).sum()))
        assert abs(total - 5.0) < 1e-12

    def test_clip_leaves_small_gradients_alone(self):
        grads = {"a": np.ones(4)}                      # norm 2
        clip_gradients(grads, 5.0)
        np.testing.assert_array_equal(grads["a"], np.ones(4))

    def test_plateau_halving_reaches_documented_value(self):
        state = OptimState(lr=1.5e-4)
        sched = PlateauScheduler(state)
        sched.update(10.0)
        for _ in range(PLATEAU_PATIENCE):
            sched.update(10.0)   # no improvement
        assert abs(state.lr - 0.75e-4) < 1e-18

    def test_plateau_counter_resets_on_improvement(self):
        # one stall short of the patience, then a better metric: without
        # the reset the last value would halve the rate
        state = OptimState(lr=1.5e-4)
        sched = PlateauScheduler(state)
        for metric in (1.0,) + (0.5,) * (PLATEAU_PATIENCE - 1) + (2.0, 1.5):
            sched.update(metric)
        assert state.lr == 1.5e-4


class TestTrainToy:
    def _setup(self, seed=0, steps=6):
        from sepformer.gradcheck import tiny_config
        from sepformer.model import Sepformer
        model = Sepformer(tiny_config(), seed=seed)
        rng = np.random.default_rng(5)
        targets = [rng.uniform(-0.5, 0.5, 64) for _ in range(2)]
        mixture = targets[0] + targets[1]
        rows = train_toy(model, lambda s: (mixture, targets), steps,
                         lr=1e-3)
        return model, rows

    def test_equal_seeds_give_identical_traces(self):
        _, rows_a = self._setup()
        _, rows_b = self._setup()
        assert [(r.step, r.loss, r.lr, r.si_snri) for r in rows_a] == \
            [(r.step, r.loss, r.lr, r.si_snri) for r in rows_b]

    def test_trace_csv_round_trip(self, tmp_path):
        _, rows = self._setup(steps=3)
        path = tmp_path / "trace.csv"
        write_trace(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == TRACE_HEADER == \
            "step,loss,lr,si_snri,wall_ms,grad_norm,tape_records," \
            "forward_ms,backward_ms"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert abs(float(first[1]) - rows[0].loss) < 1e-9
        assert float(first[5]) == rows[0].grad_norm
        assert int(first[6]) == rows[0].tape_records
        for r in rows:
            assert 0.0 < r.forward_ms and 0.0 < r.backward_ms
            assert r.forward_ms + r.backward_ms <= r.wall_ms

    def test_trace_holds_preclip_norm_and_tape_size(self):
        from sepformer.gradcheck import tiny_config
        from sepformer.model import Sepformer
        model = Sepformer(tiny_config(), seed=0)
        rng = np.random.default_rng(5)
        targets = [rng.uniform(-0.5, 0.5, 64) for _ in range(2)]
        mixture = targets[0] + targets[1]
        params = model.parameters()
        with Tape() as tape:
            loss, _ = pit_loss(model.separate(mixture).estimates, targets)
            n_records = len(tape._records)
            grads = tape.gradient(loss, params.values())
        norm = math.sqrt(sum(float((g * g).sum()) for g in grads))
        _, rows = self._setup(steps=2)
        assert rows[0].grad_norm == norm
        assert rows[0].tape_records == rows[1].tape_records == n_records

    def test_divergence_aborts_with_step_index(self):
        from sepformer.gradcheck import tiny_config
        from sepformer.model import Sepformer
        model = Sepformer(tiny_config(), seed=0)
        # blow up the encoder so the forward pass goes non-finite
        model.encoder_filters.data[...] = 1e300
        rng = np.random.default_rng(5)
        targets = [rng.uniform(-0.5, 0.5, 64) for _ in range(2)]
        mixture = targets[0] + targets[1]
        import sepformer.ndkernel as nd
        nd.set_debug_checks(False)
        with np.errstate(all="ignore"), \
                pytest.raises(TrainingDivergedError, match="step 0"):
            train_toy(model, lambda s: (mixture, targets), 3, lr=1e-3)

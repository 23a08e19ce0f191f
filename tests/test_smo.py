import dataclasses

import numpy as np
import pytest

from conftest import make_dataset
from opdense import smo
from opdense.errors import SchemaMismatch
from opdense.kernels import KernelSpec, gram_matrix
from opdense.labels import FAMILY_LABELS, LabelScheme
from opdense.smo import EPSILON, STACK_CELLS, TrainerConfig, smo_solve, smo_solve_lockstep
from opdense.svm import decision_values, train_multiclass
from qp_oracle import dual_value, kkt_violation, qp_oracle

LINEAR = KernelSpec(family="poly", C=100.0)


def test_analytic_two_point_problem():
    X = np.array([[0.0], [1.0]])
    y = np.array([-1.0, 1.0])
    sol = smo_solve(gram_matrix(LINEAR, X), y, 100.0, TrainerConfig(tolerance=1e-8))
    assert sol.alphas == pytest.approx([2.0, 2.0], abs=1e-6)
    assert sol.bias == pytest.approx(-1.0, abs=1e-6)
    # decision function is 2x - 1: boundary at 0.5
    f = lambda x: 2.0 * x - 1.0
    assert f(0.9) == pytest.approx(0.8)


def test_xor_with_rbf_fits_training_data():
    X = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=float)
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    spec = KernelSpec(family="rbf", gamma=1.0, C=100.0)
    g = gram_matrix(spec, X)
    sol = smo_solve(g, y, 100.0, TrainerConfig(tolerance=1e-8))
    f = g @ (sol.alphas * y) + sol.bias
    assert np.all(np.sign(f) == y)
    objective = dual_value(g, y, sol.alphas)
    assert abs(objective - qp_oracle(g, y, 100.0)) <= 1e-6 * max(1.0, objective)


def test_model_invariants_on_trained_binary():
    rng = np.random.RandomState(4)
    X = np.vstack([rng.rand(12, 3) * 0.4, rng.rand(12, 3) * 0.4 + 0.6])
    labels = ["good"] * 12 + ["malware"] * 12
    ds = make_dataset(np.clip(X, 0, 1), labels)
    multiclass = train_multiclass(ds, KernelSpec(family="puk", C=10.0))
    model = multiclass.machines[0]
    # multiplier sign balance carries over to the retained support vectors
    assert abs(float(model.coef.sum())) <= 1e-8
    assert np.all(model.alphas > 0)
    assert np.all(model.alphas <= 10.0 + 1e-12)
    # positive side of the pair is the later class in scheme order
    assert model.class_pair == ("good", "malware")
    decisions = decision_values(multiclass, ds)[:, 0]
    predicted = np.where(decisions >= 0, "malware", "good")
    assert list(predicted) == labels


def test_determinism_same_data_same_model():
    rng = np.random.RandomState(8)
    X = rng.rand(20, 4)
    y = np.where(rng.rand(20) < 0.5, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0
    g = gram_matrix(KernelSpec(family="rbf", gamma=0.5, C=5.0), X)
    a = smo_solve(g, y, 5.0)
    b = smo_solve(g, y, 5.0)
    assert np.array_equal(a.alphas, b.alphas)
    assert a.bias == b.bias


def test_iteration_cap_returns_flagged_best_effort():
    rng = np.random.RandomState(3)
    X = rng.rand(30, 3)
    y = np.where(rng.rand(30) < 0.5, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0
    g = gram_matrix(KernelSpec(family="rbf", gamma=1.0, C=100.0), X)
    sol = smo_solve(g, y, 100.0, TrainerConfig(max_iterations=3))
    assert sol.hit_iteration_cap
    assert sol.iterations == 3


def test_kkt_gap_is_the_final_violating_pair_gap():
    rng = np.random.RandomState(3)
    X = rng.rand(30, 3)
    y = np.where(rng.rand(30) < 0.5, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0
    g = gram_matrix(KernelSpec(family="rbf", gamma=1.0, C=100.0), X)
    for config in (TrainerConfig(tolerance=1e-6), TrainerConfig(max_iterations=3)):
        sol = smo_solve(g, y, 100.0, config)
        beta = sol.alphas * y
        t = y - g @ beta
        upper = np.where(y > 0, 100.0, 0.0)
        gap = t[beta < upper].max() - t[beta > upper - 100.0].min()
        assert sol.kkt_gap == pytest.approx(gap, abs=1e-12)
        assert (sol.kkt_gap > 2.0 * config.tolerance) == sol.hit_iteration_cap
    # one class only: I_low is empty, so the gap is 0
    assert smo_solve(g, np.ones(30), 100.0).kkt_gap == 0.0


def _random_problem(rng):
    n = int(rng.randint(2, 7))
    d = int(rng.randint(1, 4))
    X = rng.rand(n, d)
    y = np.where(rng.rand(n) < 0.5, 1.0, -1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    return X, y


def _random_spec(rng, family, C):
    kw = dict(family=family, C=C)
    if family in ("poly", "normalized_poly"):
        kw["exponent"] = float(rng.choice([1.0, 2.0]))
        kw["use_lower_order"] = bool(rng.rand() < 0.5)
    elif family == "rbf":
        kw["gamma"] = float(rng.choice([0.5, 1.0]))
    else:
        kw["sigma"] = float(rng.choice([0.5, 1.0]))
        kw["omega"] = float(rng.choice([0.5, 1.0, 2.0]))
    return KernelSpec(**kw)


def test_oracle_equivalence_sample():
    # a small slice of the full acceptance sweep, for fast feedback
    rng = np.random.RandomState(999)
    for rep in range(6):
        X, y = _random_problem(rng)
        for k, family in enumerate(("poly", "normalized_poly", "rbf", "puk")):
            C = 1.0 if (rep + k) % 2 == 0 else 100.0
            g = gram_matrix(_random_spec(rng, family, C), X)
            sol = smo_solve(g, y, C, TrainerConfig(tolerance=1e-6, max_iterations=200_000))
            oracle = qp_oracle(g, y, C)
            assert abs(dual_value(g, y, sol.alphas) - oracle) <= 1e-6 * max(1.0, abs(oracle))
            assert kkt_violation(g, y, sol.alphas, sol.bias, C) <= 1e-6 + 1e-9


def test_bias_meets_tolerance_on_criterion_3_case():
    # criterion 3's generator at rep 5, rbf, C=100: averaging y - g over the
    # interior points reported a bias that violated the margins by 1.096e-6
    rng = np.random.RandomState(12345)
    for rep in range(6):
        X, y = _random_problem(rng)
        specs = {family: _random_spec(rng, family, 1.0 if (rep + k) % 2 == 0 else 100.0)
                 for k, family in enumerate(("poly", "normalized_poly", "rbf", "puk"))}
    spec = specs["rbf"]
    assert spec.C == 100.0
    g = gram_matrix(spec, X)
    sol = smo_solve(g, y, spec.C, TrainerConfig(tolerance=1e-6, max_iterations=200_000))
    assert not sol.hit_iteration_cap
    assert kkt_violation(g, y, sol.alphas, sol.bias, spec.C) <= 1e-6 + 1e-9


def test_bias_with_all_multipliers_at_a_bound_lies_in_kkt_interval():
    rng = np.random.RandomState(6)
    X = rng.rand(8, 2)
    y = np.array([1.0, -1.0] * 4)
    g = gram_matrix(KernelSpec(family="rbf", gamma=1.0, C=0.01), X)
    sol = smo_solve(g, y, 0.01, TrainerConfig(tolerance=1e-6))
    assert np.all((sol.alphas == 0.0) | (sol.alphas == 0.01))
    t = y - g @ (sol.alphas * y)
    lower = (sol.alphas == 0.0) == (y > 0)  # b >= t here, b <= t elsewhere
    assert t[lower].max() <= sol.bias <= t[~lower].min()


@pytest.mark.parametrize("spec", [
    KernelSpec(family="poly", exponent=2.0, use_lower_order=True, C=10.0),
    KernelSpec(family="rbf", gamma=1.0, C=10.0),
    KernelSpec(family="puk", C=10.0),
], ids=lambda spec: spec.family)
def test_pair_without_curvature_steps_to_the_box(spec):
    # rows 0 and 1 coincide with opposite labels, so K_00 + K_11 - 2K_01 = 0
    # and the first working pair is cut only by the box
    X = np.array([[0.2, 0.3], [0.2, 0.3], [0.8, 0.1], [0.5, 0.9], [0.9, 0.7]])
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    g = gram_matrix(spec, X)
    assert g[0, 0] + g[1, 1] - 2.0 * g[0, 1] == 0.0
    sol = smo_solve(g, y, spec.C, TrainerConfig(tolerance=1e-6, max_iterations=200_000))
    assert not sol.hit_iteration_cap
    assert kkt_violation(g, y, sol.alphas, sol.bias, spec.C) <= 1e-6 + 1e-9
    oracle = qp_oracle(g, y, spec.C)
    assert abs(dual_value(g, y, sol.alphas) - oracle) <= 1e-6 * max(1.0, abs(oracle))


def test_oracle_sign_agreement_excluding_boundary_points():
    rng = np.random.RandomState(321)
    for _ in range(10):
        X, y = _random_problem(rng)
        spec = _random_spec(rng, "rbf", 10.0)
        g = gram_matrix(spec, X)
        sol = smo_solve(g, y, 10.0, TrainerConfig(tolerance=1e-8, max_iterations=200_000))
        f = g @ (sol.alphas * y) + sol.bias
        # decisions must match the sign structure of a (near) optimal
        # solution; points essentially on the boundary are excluded
        margins = y * f
        for i in range(len(y)):
            if sol.alphas[i] <= 1e-9:
                assert margins[i] >= 1 - 1e-6
            elif sol.alphas[i] >= 10.0 - 1e-9:
                assert margins[i] <= 1 + 1e-6
            else:
                assert margins[i] == pytest.approx(1.0, abs=1e-6)


def test_trainer_config_validation():
    with pytest.raises(SchemaMismatch):
        TrainerConfig(tolerance=0.0)
    with pytest.raises(SchemaMismatch):
        TrainerConfig(tolerance=float("nan"))
    with pytest.raises(SchemaMismatch):
        TrainerConfig(max_iterations=-1)
    # a cap that steps can never equal would never fire
    with pytest.raises(SchemaMismatch):
        TrainerConfig(max_iterations=2.5)
    with pytest.raises(SchemaMismatch):
        TrainerConfig(max_iterations=True)
    assert TrainerConfig(max_iterations=np.int64(3)).max_iterations == 3
    # frozen, so a value cannot get past the checks by assignment
    config = TrainerConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.max_iterations = 2.5


def _mixed_stack():
    """Problems of different sizes over all four kernel families, with a
    single-class problem and a pair without curvature among them."""
    rng = np.random.RandomState(17)
    grams, ys = [], []
    for k, n in enumerate((2, 7, 19, 40, 12, 30, 5, 23)):
        X = rng.rand(n, 3)
        y = np.where(rng.rand(n) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        if k == 2:
            X[1] = X[0]  # a_01 = 0
        grams.append(gram_matrix(_random_spec(rng, ("poly", "normalized_poly", "rbf", "puk")[k % 4], 10.0), X))
        ys.append(y)
    grams.insert(3, gram_matrix(KernelSpec(family="puk"), rng.rand(9, 3)))
    ys.insert(3, np.ones(9))
    return grams, ys


@pytest.mark.parametrize("max_iterations", [0, 1, 25, 1_000_000])
def test_lockstep_matches_smo_solve_on_every_problem(max_iterations):
    grams, ys = _mixed_stack()
    assert len(ys) * max(map(len, ys)) ** 2 <= STACK_CELLS  # one stack
    g = grams[2]
    assert g[0, 0] + g[1, 1] - 2.0 * g[0, 1] == 0.0
    config = TrainerConfig(tolerance=1e-6, max_iterations=max_iterations)
    stacked = smo_solve_lockstep(iter(grams), ys, 10.0, config)
    single = [smo_solve(g, y, 10.0, config) for g, y in zip(grams, ys)]
    if max_iterations <= 1:
        # at 0 every problem stops on the first pass with t exact; at 1 every
        # problem but the single-class one steps, then has t recomputed and
        # stops at the cap in one pass
        assert {s.iterations for s in single} == {0, max_iterations}
    else:
        assert len({s.iterations for s in single}) >= 4  # problems stop at different steps
    if max_iterations < 1_000_000:
        assert {s.hit_iteration_cap for s in single} == {True, False}
    _assert_same_solutions(stacked, single)


def test_a_problem_with_every_label_negative_takes_its_bias_from_the_low_side():
    # no row can grow (I_up is empty), so SMO takes no step and the bias
    # interval collapses to its one end, min over I_low of t = -1
    rng = np.random.RandomState(5)
    gram = gram_matrix(KernelSpec(family="rbf"), rng.rand(8, 3))
    y = -np.ones(8)
    solution = smo_solve(gram, y, 10.0)
    assert solution.bias == -1.0 and solution.kkt_gap == 0.0
    assert not solution.alphas.any() and len(solution.alphas) == 8
    assert solution.iterations == 0 and not solution.hit_iteration_cap
    grams, ys = _mixed_stack()
    grams.insert(5, gram)
    ys.insert(5, y)
    _assert_same_solutions(smo_solve_lockstep(iter(grams), ys, 10.0),
                           [smo_solve(g, y, 10.0) for g, y in zip(grams, ys)])


def test_lockstep_matches_smo_solve_where_the_exact_t_reopens_a_gap():
    # at this tolerance rounding drift in the updated t closes a gap that
    # the exact t reopens, so that problem steps on in the pass that
    # recomputed its t
    rng = np.random.RandomState(12)
    grams, ys = [], []
    for n in (6, 9, 12, 15):
        X = rng.rand(n, 3)
        y = np.where(rng.rand(n) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        grams.append(gram_matrix(KernelSpec(family="rbf", gamma=5.0), X))
        ys.append(y)
    config = TrainerConfig(tolerance=1e-13, max_iterations=5000)
    single = [smo_solve(g, y, 1000.0, config) for g, y in zip(grams, ys)]
    assert not any(s.hit_iteration_cap for s in single)
    _assert_same_solutions(smo_solve_lockstep(iter(grams), ys, 1000.0, config), single)


def _assert_same_solutions(stacked, single):
    for got, want in zip(stacked, single, strict=True):
        assert np.array_equal(got.alphas, want.alphas)
        assert got.bias == want.bias
        assert got.iterations == want.iterations
        assert got.hit_iteration_cap == want.hit_iteration_cap
        assert got.kkt_gap == want.kkt_gap


def _six_class_set(rng, sizes, width):
    centres = rng.rand(6, width)
    X = np.clip(np.repeat(centres, sizes, axis=0) + 0.2 * rng.randn(sum(sizes), width), 0.0, 1.0)
    return X, [label for label, size in zip(FAMILY_LABELS, sizes) for _ in range(size)]


def _assert_machines_match_per_pair_solves(X, labels):
    spec = KernelSpec(family="puk", C=1.0)
    model = train_multiclass(make_dataset(X, labels, scheme=LabelScheme.family), spec)
    assert len(model.machines) == 15
    names = np.asarray(labels, dtype=object)
    for machine in model.machines:
        neg, pos = machine.class_pair
        mask = (names == neg) | (names == pos)
        y = np.where(names[mask] == pos, 1.0, -1.0)
        want = smo_solve(gram_matrix(spec, X[mask]), y, spec.C)
        keep = want.alphas > EPSILON
        assert np.array_equal(machine.alphas, want.alphas[keep])
        assert np.array_equal(machine.support_vectors, X[mask][keep])
        assert np.array_equal(np.sign(machine.coef), y[keep])
        assert machine.bias == want.bias
        assert machine.hit_iteration_cap == want.hit_iteration_cap
        assert (machine.iterations, machine.kkt_gap) == (want.iterations, want.kkt_gap)


def _count_stacks(monkeypatch) -> list[int]:
    """The number of problems of each lockstep stack solved from here on."""
    stacks = []
    solve_stack = smo._solve_stack

    def counted(grams, ys, *rest):
        stacks.append(len(ys))
        return solve_stack(grams, ys, *rest)

    monkeypatch.setattr(smo, "_solve_stack", counted)
    return stacks


def test_train_multiclass_matches_per_pair_solves_across_stacks(monkeypatch):
    # six classes of 100 rows: a pair has 200 rows, so under a budget of six
    # such pairs the 15 pairs take three stacks
    monkeypatch.setattr(smo, "STACK_CELLS", 6 * 200 ** 2)
    stacks = _count_stacks(monkeypatch)
    _assert_machines_match_per_pair_solves(*_six_class_set(np.random.RandomState(23), [100] * 6, 4))
    assert stacks == [6, 6, 3]


def test_a_six_class_model_of_230_row_pairs_is_one_stack(monkeypatch):
    # the benchmark's train models pad their one stack to 216-230 rows
    assert 15 * 230 ** 2 <= STACK_CELLS
    stacks = _count_stacks(monkeypatch)
    _assert_machines_match_per_pair_solves(*_six_class_set(np.random.RandomState(31), [115] * 6, 4))
    assert stacks == [15]


def test_train_multiclass_matches_per_pair_solves_on_select_sized_pairs():
    # the training set of one perfbench select round: 126 rows of six
    # classes, so the 15 pairs of 36-46 rows share one padded stack
    sizes = [19, 22, 21, 24, 18, 22]
    assert sum(sizes) == 126 and 15 * 46 ** 2 <= STACK_CELLS
    _assert_machines_match_per_pair_solves(*_six_class_set(np.random.RandomState(29), sizes, 8))

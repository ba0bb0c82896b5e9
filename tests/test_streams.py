import numpy as np
import pytest

from safestream.data import Dataset
from safestream.errors import ConfigError
from safestream.streams import StreamSpec, generate_stream


def flat_dataset(n, n_classes=10):
    return Dataset(
        np.zeros((n, 1)), np.arange(n) % n_classes, np.arange(n)
    )


def test_protocol_scale_request_stream():
    # 20 rounds x 400 points on a 60000-point set: 8000 distinct ids
    train = flat_dataset(60000)
    spec = StreamSpec(rounds=20, per_round=400, seed=0)
    requests = generate_stream(train, spec, min_class_count=34)
    all_ids = np.concatenate(requests)
    assert len(all_ids) == 8000
    assert len(np.unique(all_ids)) == 8000
    assert all(len(r) == 400 for r in requests)


def test_requests_disjoint_and_within_train():
    train = flat_dataset(1000)
    requests = generate_stream(
        train, StreamSpec(rounds=5, per_round=50, seed=3), min_class_count=10
    )
    seen = set()
    for r in requests:
        ids = set(int(i) for i in r)
        assert not ids & seen
        assert ids <= set(train.ids.tolist())
        seen |= ids


def test_empty_stream():
    train = flat_dataset(100)
    requests = generate_stream(
        train, StreamSpec(rounds=1, per_round=0, seed=0), min_class_count=2
    )
    assert len(requests) == 1 and len(requests[0]) == 0


def test_seeded_determinism():
    train = flat_dataset(500)
    a = generate_stream(train, StreamSpec(rounds=3, per_round=20, seed=1), 5)
    b = generate_stream(train, StreamSpec(rounds=3, per_round=20, seed=1), 5)
    c = generate_stream(train, StreamSpec(rounds=3, per_round=20, seed=2), 5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_class_stream_draws_only_target_class():
    train = flat_dataset(1000, n_classes=4)
    spec = StreamSpec(mode="class-stream", rounds=5, per_round=40,
                      target_class=2, seed=0)
    requests = generate_stream(train, spec, min_class_count=5)
    for r in requests:
        assert np.all(train.y[np.isin(train.ids, r)] == 2)


def test_class_stream_can_drain_class_exactly():
    train = flat_dataset(400, n_classes=4)  # 100 per class
    spec = StreamSpec(mode="class-stream", rounds=10, per_round=10,
                      target_class=0, seed=1)
    requests = generate_stream(train, spec, min_class_count=5)
    drained = np.concatenate(requests)
    assert len(drained) == 100
    assert set(drained.tolist()) == set(train.ids[train.y == 0].tolist())


def test_budget_overflow_rejected():
    train = flat_dataset(100, n_classes=5)
    with pytest.raises(ConfigError):
        generate_stream(
            train, StreamSpec(rounds=10, per_round=10, seed=0), min_class_count=4
        )
    with pytest.raises(ConfigError):
        generate_stream(
            train,
            StreamSpec(mode="class-stream", rounds=3, per_round=10,
                       target_class=1, seed=0),
            min_class_count=0,
        )


def test_spec_validation():
    with pytest.raises(ConfigError):
        StreamSpec(mode="bogus")
    with pytest.raises(ConfigError):
        StreamSpec(mode="class-stream")
    with pytest.raises(ConfigError):
        StreamSpec(rounds=-1)

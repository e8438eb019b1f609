"""Property tests for the per-tenant weighted fair queue."""

import random

import pytest

from repro.serve import WeightedFairQueue


def drain(queue):
    order = []
    while len(queue):
        order.append(queue.pop())
    return order


# ---------------------------------------------------------------------------
# Basics
# ---------------------------------------------------------------------------

def test_fifo_within_one_tenant():
    queue = WeightedFairQueue()
    for i in range(10):
        queue.push("a", weight=1.0, cost=0.001, item=i)
    assert [item for _t, item in drain(queue)] == list(range(10))


def test_pop_empty_raises():
    queue = WeightedFairQueue()
    with pytest.raises(IndexError):
        queue.pop()


def test_depth_tracking():
    queue = WeightedFairQueue()
    queue.push("a", 1.0, 0.001, "x")
    queue.push("a", 1.0, 0.001, "y")
    queue.push("b", 2.0, 0.001, "z")
    assert len(queue) == 3
    assert queue.max_depth == 3
    queue.pop()
    assert len(queue) == 2
    assert queue.max_depth == 3  # high-water mark sticks


# ---------------------------------------------------------------------------
# Weighted sharing
# ---------------------------------------------------------------------------

def test_weights_set_interleave_ratio():
    """With a 3:1 weight ratio and equal costs, a backlogged drain
    serves the heavy tenant ~3x as often in any prefix."""
    queue = WeightedFairQueue()
    for i in range(30):
        queue.push("heavy", 3.0, 0.001, ("heavy", i))
    for i in range(30):
        queue.push("light", 1.0, 0.001, ("light", i))
    order = [tenant for tenant, _item in drain(queue)]
    # In the first 20 pops the heavy tenant should get ~3/4.
    heavy_share = order[:20].count("heavy") / 20
    assert heavy_share >= 0.7


def test_equal_weights_alternate():
    queue = WeightedFairQueue()
    for i in range(8):
        queue.push("a", 1.0, 0.001, i)
        queue.push("b", 1.0, 0.001, i)
    order = [tenant for tenant, _ in drain(queue)]
    # Neither tenant is ever more than one serve ahead.
    for i in range(1, len(order) + 1):
        prefix = order[:i]
        assert abs(prefix.count("a") - prefix.count("b")) <= 1


# ---------------------------------------------------------------------------
# Starvation freedom under adversarial mixes
# ---------------------------------------------------------------------------

def test_no_starvation_under_flood():
    """A tenant that floods the queue cannot starve a light tenant:
    the light tenant's single request is served within a bounded
    number of pops (its finish tag beats the flood's backlog)."""
    queue = WeightedFairQueue()
    for i in range(1000):
        queue.push("flood", 1.0, 0.001, ("flood", i))
    queue.push("light", 1.0, 0.001, ("light", 0))
    for position in range(1000 + 1):
        tenant, _item = queue.pop()
        if tenant == "light":
            break
    # Served within a couple of pops, not after the flood drains.
    assert position <= 2


def test_no_starvation_adversarial_mix():
    """Random adversarial pushes: every tenant's wait (in pops) is
    bounded relative to its share of the queue, and nothing is lost."""
    rng = random.Random(7)
    queue = WeightedFairQueue()
    weights = {"gold": 4.0, "silver": 2.0, "bronze": 1.0}
    pushed = {name: 0 for name in weights}
    popped = {name: 0 for name in weights}
    for _round in range(2000):
        name = rng.choice(list(weights))
        # Adversary varies costs wildly to try to game the tags.
        cost = rng.choice([1e-5, 1e-4, 1e-3, 1e-2])
        queue.push(name, weights[name], cost, None)
        pushed[name] += 1
        if len(queue) > 64:
            tenant, _ = queue.pop()
            popped[tenant] += 1
    while len(queue):
        tenant, _ = queue.pop()
        popped[tenant] += 1
    assert pushed == popped  # conservation: nothing starved forever


def test_late_joiner_not_penalized():
    """Virtual time advances with service, so a tenant that joins
    after others have been served competes from *now*, not from the
    epoch (no banked credit against it)."""
    queue = WeightedFairQueue()
    for i in range(50):
        queue.push("early", 1.0, 0.001, i)
    for _ in range(50):
        queue.pop()
    queue.push("late", 1.0, 0.001, "first")
    queue.push("early", 1.0, 0.001, "more")
    tenant, item = queue.pop()
    assert (tenant, item) == ("late", "first")


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_deterministic_under_fixed_seed():
    def run(seed):
        rng = random.Random(seed)
        queue = WeightedFairQueue()
        order = []
        for i in range(500):
            name = rng.choice(["a", "b", "c"])
            queue.push(name, {"a": 1.0, "b": 2.0, "c": 4.0}[name],
                       rng.choice([1e-4, 1e-3]), i)
            if rng.random() < 0.5 and len(queue):
                order.append(queue.pop())
        order.extend(drain(queue))
        return order

    assert run(42) == run(42)
    assert run(42) != run(43)  # the seed actually matters


def test_tie_break_is_push_order():
    """Identical finish tags fall back to submission order, so the
    drain order is a total, deterministic function of the pushes."""
    queue = WeightedFairQueue()
    queue.push("b", 1.0, 0.001, "first-pushed")
    queue.push("a", 1.0, 0.001, "second-pushed")
    assert queue.pop()[1] == "first-pushed"
    assert queue.pop()[1] == "second-pushed"

import dataclasses
import gc
import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from votesim import experiments, hevs
from votesim.adversary import Behavior, VoterRole
from votesim.errors import (
    AmbiguousMode,
    MissingShares,
    NoConsistentResult,
    RefuseSingletonAggregate,
)
from votesim.group import (
    FIXED_BASE_MIN_USES,
    CombTable,
    FixedBase,
    GroupParams,
    default_group,
)
from votesim.hev import Ciphertext
from votesim.hevs import (
    SamplingPlan,
    SampleResult,
    combine_sampled_decrypt,
    combine_sampled_public_key,
    make_sampling_plan,
    mode_decision,
    reliability_probability,
    reliability_probability_with_replacement,
    resolve_sample_size,
    run_sampled_election,
)
from votesim.simnet import ElectionConfig, run_election

PIECES = {1: 8, 2: 9, 3: 4}  # g**3, g**5, g**2 in the mod-23 group


def honest_roles(n):
    return [VoterRole(i, honest=True) for i in range(1, n + 1)]


def test_resolve_sample_size_policies():
    assert resolve_sample_size(None, 7) == 4
    assert resolve_sample_size("half", 50) == 25
    assert resolve_sample_size("sqrt", 50) == 8
    assert resolve_sample_size("sqrt-half", 50) == 5
    assert resolve_sample_size(3, 50) == 3
    with pytest.raises(ValueError):
        resolve_sample_size(0, 50)
    with pytest.raises(ValueError):
        resolve_sample_size("cube", 50)


def test_plan_shape_and_bounds(rng):
    plan = make_sampling_plan(rng, n=10, k=5)
    assert plan.k == 5
    assert plan.sizes == (5, 5, 5, 5, 5)
    assert all(1 <= i <= 10 for ms in plan.multisets for i in ms)


def test_plan_per_sample_sizes(rng):
    plan = make_sampling_plan(rng, n=10, k=3, t_policy=[2, 4, "half"])
    assert plan.sizes == (2, 4, 5)
    with pytest.raises(ValueError):
        make_sampling_plan(rng, n=10, k=2, t_policy=[2, 4, 6])


def test_plan_allows_duplicates(rng):
    # with replacement, repeats show up fast on a small population
    plan = make_sampling_plan(rng, n=3, k=40, t_policy=2)
    assert any(len(set(ms)) < len(ms) for ms in plan.multisets)


def test_plan_population_one(rng):
    plan = make_sampling_plan(rng, n=1, k=3)
    assert all(ms == (1,) for ms in plan.multisets)


def test_plan_draws_are_uniform():
    # relative frequency of each index within 1/n +- 0.02 over 10,000 draws
    n = 5
    plan = make_sampling_plan(random.Random(17), n=n, k=100, t_policy=100)
    counts = Counter(i for ms in plan.multisets for i in ms)
    total = sum(counts.values())
    assert total == 10_000
    for i in range(1, n + 1):
        assert abs(counts[i] / total - 1 / n) < 0.02


def test_plan_is_deterministic():
    a = make_sampling_plan(random.Random(3), 8, 4)
    b = make_sampling_plan(random.Random(3), 8, 4)
    assert a == b


def test_sampled_key_worked_values(tiny):
    plan = SamplingPlan(population=3, multisets=((1, 1), (2, 3)))
    assert combine_sampled_public_key(tiny, PIECES, plan, 0) == 18  # 8*8 = 64 = g**6 mod 23
    assert plan.multiplicity(0) == {1: 2}
    assert combine_sampled_public_key(tiny, PIECES, plan, 1) == 13  # 9*4 = 36 = g**7 mod 23
    assert plan.multiplicity(1) == {2: 1, 3: 1}


def test_sampled_key_requires_all_pieces(tiny):
    plan = SamplingPlan(population=3, multisets=((1, 2),))
    with pytest.raises(ValueError):
        combine_sampled_public_key(tiny, {1: 8}, plan, 0)


def test_sampled_key_matches_exponent_sum(tiny, rng):
    secrets = {i: rng.randrange(1, tiny.order) for i in range(1, 6)}
    pieces = {i: tiny.exp(tiny.generator, s) for i, s in secrets.items()}
    plan = make_sampling_plan(rng, 5, 4)
    for j in range(plan.k):
        exponent = sum(secrets[i] * c for i, c in plan.multiplicity(j).items())
        assert combine_sampled_public_key(tiny, pieces, plan, j) == tiny.exp(tiny.generator, exponent)


def sampled_pipeline(params, votes, plan, rng, tamper=None):
    """All-honest sample pipeline with an optional share-tamper hook."""
    n = len(votes)
    secrets = {i: params.random_scalar(rng) for i in range(1, n + 1)}
    pieces = {i: params.exp(params.generator, s) for i, s in secrets.items()}
    results = []
    for j in range(plan.k):
        key = combine_sampled_public_key(params, pieces, plan, j)
        cts = []
        for v in votes:
            nonce = params.random_nonce(rng)
            cts.append(Ciphertext(
                params.exp(params.generator, nonce),
                params.mul(params.exp(key, nonce), params.exp(params.generator, v)),
            ))
        agg = Ciphertext(1, 1)
        for ct in cts:
            agg = Ciphertext(params.mul(agg.c1, ct.c1), params.mul(agg.c2, ct.c2))
        shares = {i: params.exp(agg.c1, secrets[i]) for i in plan.multiplicity(j)}
        if tamper:
            shares = tamper(j, params, agg, shares)
        results.append(combine_sampled_decrypt(params, shares, plan, j, agg, n))
    return results


def test_all_honest_samples_decode_true_tally(big):
    rng = random.Random(31)
    for _ in range(5):
        n = rng.randint(1, 5)
        votes = [rng.randrange(2) for _ in range(n)]
        plan = make_sampling_plan(rng, n, 3)
        for result in sampled_pipeline(big, votes, plan, rng):
            assert result.tally == sum(votes)


def test_faked_share_corrupts_sample(big):
    rng = random.Random(32)
    votes = [1, 0, 1, 1]
    plan = make_sampling_plan(rng, 4, 4)

    def tamper(j, params, agg, shares):
        victim = next(iter(shares))
        shares = dict(shares)
        shares[victim] = params.exp(agg.c1, params.random_scalar(rng))
        return shares

    for result in sampled_pipeline(big, votes, plan, rng, tamper):
        assert result.tally != sum(votes)  # wrong value or undecodable


def test_double_sampled_voter_contributes_share_squared(tiny):
    plan = SamplingPlan(population=3, multisets=((1, 1),))
    votes = [1, 0, 1]
    results = sampled_pipeline(tiny, votes, plan, random.Random(4))
    assert results[0].tally == sum(votes)  # sk used twice in key and in mask


def test_missing_sampled_voter_raises(tiny):
    plan = SamplingPlan(population=3, multisets=((1, 2),))
    agg = Ciphertext(2, 2)
    with pytest.raises(MissingShares) as excinfo:
        combine_sampled_decrypt(tiny, {1: 8}, plan, 0, agg, 3)
    assert excinfo.value.missing_ids == (2,)


def test_mode_decision_examples():
    assert mode_decision([2, 2, 7, 9], 2) == 2
    with pytest.raises(AmbiguousMode):
        mode_decision([2, 2, 9, 9], 2)
    with pytest.raises(NoConsistentResult):
        mode_decision([1, 2, 3], 2)


def test_mode_decision_ignores_undecodable():
    results = [
        SampleResult(0, None, None),
        SampleResult(1, 4, 2),
        SampleResult(2, 4, 2),
        SampleResult(3, None, None),
    ]
    assert mode_decision([r.tally for r in results], 2) == 2
    with pytest.raises(NoConsistentResult):
        mode_decision([None] * 4, 2)


def test_mode_decision_validates_min_consistency():
    with pytest.raises(ValueError):
        mode_decision([1, 1], 1)


@given(values=st.lists(st.one_of(st.none(), st.integers(0, 5)), min_size=1, max_size=12),
       seed=st.integers(0, 1000))
def test_mode_decision_is_permutation_invariant(values, seed):
    def outcome(vals):
        try:
            return ("ok", mode_decision(vals, 2))
        except NoConsistentResult:
            return ("none", None)
        except AmbiguousMode:
            return ("tie", None)

    shuffled = list(values)
    random.Random(seed).shuffle(shuffled)
    assert outcome(values) == outcome(shuffled)


def test_reliability_probability_values():
    assert reliability_probability(50, 5, 25) == pytest.approx(0.025, abs=0.001)
    assert reliability_probability(100, 0, 50) == 1.0
    assert reliability_probability(3, 1, 2) == pytest.approx(1 / 3)
    assert reliability_probability(10, 6, 5) == 0.0  # t > n - m
    for bad in ((0, 0, 0), (5, -1, 2), (5, 2, -1), (5, 6, 1), (5, 1, 6)):
        with pytest.raises(ValueError):
            reliability_probability(*bad)


def test_reliability_probability_monotone_grid():
    for n in range(2, 61, 7):
        for t in range(0, n):
            for m in range(0, n):
                assert reliability_probability(n, m, t) >= reliability_probability(n, m + 1, t)
        for m in range(0, n):
            for t in range(0, n):
                assert reliability_probability(n, m, t) >= reliability_probability(n, m, t + 1)


@given(data=st.data())
def test_reliability_probability_is_the_float_of_the_binomial_ratio(data):
    # perm(n - t, m) / perm(n, m) or perm(n - m, t) / perm(n, t): the same
    # rational as C(n - m, t) / C(n, t), rounded once by int / int
    n = data.draw(st.integers(1, 3000))
    m = data.draw(st.integers(0, n))
    t = data.draw(st.one_of(st.integers(0, n), st.integers(max(n - m - 2, 0), n)))
    expected = math.comb(n - m, t) / math.comb(n, t) if t <= n - m else 0.0
    assert reliability_probability(n, m, t) == expected


def test_with_replacement_variant():
    assert reliability_probability_with_replacement(50, 5, 25) == pytest.approx(0.9 ** 25)
    assert reliability_probability_with_replacement(10, 0, 99) == 1.0
    assert reliability_probability_with_replacement(10, 10, 1) == 0.0
    with pytest.raises(ValueError):
        reliability_probability_with_replacement(10, 11, 1)


@given(data=st.data())
def test_all_honest_any_plan_mode_returns_truth(big, data):
    n = data.draw(st.integers(1, 20))
    k = data.draw(st.integers(2, 10))
    seed = data.draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    votes = [rng.randrange(2) for _ in range(n)]
    plan = make_sampling_plan(rng, n, k, data.draw(st.sampled_from([None, "sqrt", 1])))
    results = run_sampled_election(big, votes, honest_roles(n), plan, rng)
    assert all(r.tally == sum(votes) for r in results)
    assert mode_decision([r.tally for r in results], 2) == sum(votes)


def test_run_sampled_election_all_honest(big):
    rng = random.Random(8)
    for n, k in ((1, 2), (4, 3), (7, 5)):
        votes = [rng.randrange(2) for _ in range(n)]
        plan = make_sampling_plan(rng, n, k)
        results = run_sampled_election(big, votes, plan=plan, rng=rng,
                                       roles=honest_roles(n))
        assert [r.tally for r in results] == [sum(votes)] * k
        assert mode_decision([r.tally for r in results], 2) == sum(votes)


def test_run_sampled_election_silent_blocks_samples(big):
    rng = random.Random(9)
    n = 4
    roles = honest_roles(n)
    roles[0] = VoterRole(1, honest=False, behavior=Behavior.SILENT)
    votes = [0, 1, 1, 0]
    plan = make_sampling_plan(rng, n, 6)
    results = run_sampled_election(big, votes, roles, plan, rng)
    for result, multiset in zip(results, plan.multisets):
        if 1 in multiset:
            assert result.tally is None and result.element is None
        else:
            assert result.tally == sum(votes)


def test_run_sampled_election_fake_share_corrupts_samples(big):
    rng = random.Random(10)
    n = 4
    roles = honest_roles(n)
    roles[1] = VoterRole(2, honest=False, behavior=Behavior.FAKE_SHARE)
    votes = [0, 0, 1, 0]  # disruptive voters vote 0
    plan = make_sampling_plan(rng, n, 6)
    results = run_sampled_election(big, votes, roles, plan, rng)
    for result, multiset in zip(results, plan.multisets):
        if 2 in multiset:
            assert result.tally != sum(votes)
        else:
            assert result.tally == sum(votes)


def test_one_cast_tallies_as_each_behaviour_alone(big):
    # voters 2 and 5 disrupt; each tally starts from the stream's state after the cast
    n = 6
    votes = [1, 0, 1, 1, 0, 1]
    for seed in range(8):
        plan = make_sampling_plan(random.Random(seed), n, 5, 3)
        alone = {}
        for behavior in (Behavior.FAKE_SHARE, Behavior.SILENT):
            roles = [VoterRole(i, i not in (2, 5), None if i not in (2, 5) else behavior)
                     for i in range(1, n + 1)]
            alone[behavior] = (roles, run_sampled_election(big, votes, roles, plan,
                                                           random.Random(seed)))
        rng = random.Random(seed)
        ballots = hevs.cast(big, votes, alone[Behavior.FAKE_SHARE][0], plan, [rng] * n)
        after_cast = rng.getstate()
        for behavior in (Behavior.SILENT, Behavior.FAKE_SHARE, Behavior.SILENT):
            roles, results = alone[behavior]
            rng.setstate(after_cast)
            assert hevs.tally(ballots, roles, [rng] * n) == results
        # a sampled disruptor blocks a sample or garbles it, which the two tell apart
        assert alone[Behavior.SILENT][1] != alone[Behavior.FAKE_SHARE][1]


def test_distinct_garbage_across_samples(big):
    # two samples containing the same fake-share voter, identical exponent:
    # the unmasked elements still differ because the nonce sums differ
    rng = random.Random(11)
    distinct = 0
    trials = 200
    for _ in range(trials):
        plan = SamplingPlan(population=3, multisets=(
            (1, rng.randint(1, 3)), (1, rng.randint(1, 3))))
        roles = [VoterRole(1, False, Behavior.FAKE_SHARE),
                 VoterRole(2, True), VoterRole(3, True)]
        results = run_sampled_election(big, [0, 1, 0], roles, plan, rng)
        if results[0].element != results[1].element:
            distinct += 1
    assert distinct == trials


def test_fake_share_voter_reuses_one_exponent(tiny, monkeypatch):
    # In the mod-23 group about one first draw in ten equals the secret, so the
    # redraw is exercised too. Every voter fakes, so no honest voter can refuse
    # a small-group aggregate that happens to equal its own ballot.
    secrets, drawn, used = {}, {}, []
    keygen, draw, fake = hevs.keygen_share, hevs.draw_fake_exponent, hevs.fake_decryption_share

    def spy_keygen(rng, params, voter_id):
        share = keygen(rng, params, voter_id)
        secrets[voter_id] = share.secret_key
        return share

    def spy_draw(rng, params, true_secret):
        # voters draw their exponents in voter order, before any share
        voter_id = len(drawn) + 1
        assert true_secret == secrets[voter_id]
        assert not used
        drawn[voter_id] = draw(rng, params, true_secret)
        return drawn[voter_id]

    def spy_fake(params, aggregate_c1, exponent):
        used.append(exponent)
        return fake(params, aggregate_c1, exponent)

    # the spies count in this process; a rebound fake_decryption_share keeps
    # every sample's shares here
    monkeypatch.setattr(hevs, "keygen_share", spy_keygen)
    monkeypatch.setattr(hevs, "draw_fake_exponent", spy_draw)
    monkeypatch.setattr(hevs, "fake_decryption_share", spy_fake)
    roles = [VoterRole(i, False, Behavior.FAKE_SHARE) for i in range(1, 5)]
    for seed in range(40):
        rng = random.Random(seed)
        plan = make_sampling_plan(rng, 4, 5, 3)
        secrets.clear()
        drawn.clear()
        used.clear()
        reports = {}
        hevs.run_pipeline(tiny, [0] * 4, roles, plan, [rng] * 4,
                          recorder=lambda phase, voter_id, value: reports.update(
                              {(phase, voter_id): value}))
        assert drawn.keys() == {1, 2, 3, 4}
        # one fake share per sample a voter is in, each to that voter's exponent
        assert Counter(used) == Counter(
            drawn[voter_id] for ms in plan.multisets for voter_id in set(ms))
        requests = reports["decrypt_request", None]
        for voter_id in drawn:
            partials = reports.get(("decrypt_share", voter_id), {})
            assert sorted(partials) == [j for j, ms in enumerate(plan.multisets) if voter_id in ms]
            assert partials == {j: tiny.exp(requests[j].c1, drawn[voter_id]) for j in partials}
            assert drawn[voter_id] != secrets[voter_id]


def test_election_tables_die_with_the_election(monkeypatch):
    built = []
    original = CombTable.__init__

    def counting_init(self, *args):
        built.append(args[-1])
        original(self, *args)

    monkeypatch.setattr(CombTable, "__init__", counting_init)
    # counts the tables built in this process, so every sample's work stays here
    monkeypatch.setattr(experiments, "POOL_MIN_EXPS", math.inf)
    for seed in range(50):
        # t = n so that most aggregates also have enough distinct voters
        config = ElectionConfig(protocol="hevs", n=12, k=8, t_policy=12, p_fail=0.2, seed=seed)
        assert run_election(config).sample_tallies is not None
    # one table each (n = 12 is below TWO_TABLE_MIN_USES): every sampled key and some aggregates
    assert built.count(1) > 50 * 8

    group = default_group()
    assert set(vars(group)) == {"modulus", "order", "generator", "_generator_table"}
    assert type(group._generator_table) is CombTable
    assert group._generator_table.span == 1 and len(group._generator_table.rows) == 32
    gc.collect()
    objects = gc.get_objects()
    generator_tables = {id(o._generator_table) for o in objects if type(o) is GroupParams}
    live_tables = {id(o) for o in objects if type(o) is CombTable}
    assert live_tables and live_tables <= generator_tables
    # a FixedBase and the verdict it keeps die with the election too
    assert not any(type(o) is FixedBase for o in objects)


class ScriptedRng(random.Random):
    """Answers every randrange call with the next scripted value."""

    def __init__(self, values):
        super().__init__(0)
        self.values = iter(values)

    def randrange(self, *args):
        return next(self.values)


@pytest.mark.parametrize("n", [FIXED_BASE_MIN_USES - 1, FIXED_BASE_MIN_USES, FIXED_BASE_MIN_USES + 1])
def test_pipeline_marks_keys_and_requests_raised_often_enough(big, monkeypatch, n):
    # Every voter raises every sampled key once, to its nonce; each distinct
    # voter of sample j raises the j-th request's c1 once, to its secret.
    raised = []
    encrypt, share = hevs.encrypt_vote, hevs.decryption_share

    def spy_encrypt(params, key, *rest):
        raised.append(("key", int(key), type(key)))
        return encrypt(params, key, *rest)

    def spy_share(params, key_share, aggregate_ct, *rest):
        raised.append(("c1", int(aggregate_ct.c1), type(aggregate_ct.c1)))
        return share(params, key_share, aggregate_ct, *rest)

    values = {}

    def recorder(phase, voter_id, value):
        values[phase] = value

    monkeypatch.setattr(hevs, "encrypt_vote", spy_encrypt)
    monkeypatch.setattr(hevs, "decryption_share", spy_share)
    # sample 0 holds all n voters; sample 1 holds voter 1 n times, one
    # distinct voter, below FIXED_BASE_MIN_USES
    plan = SamplingPlan(n, (tuple(range(1, n + 1)), (1,) * n))
    results = run_sampled_election(big, [1] * n, honest_roles(n), plan, random.Random(n),
                                   recorder=recorder)
    assert [r.tally for r in results] == [n, n]
    marked = FixedBase if n >= FIXED_BASE_MIN_USES else int
    keys = [int(key) for key in values["broadcast"]]
    c1s = [int(ct.c1) for ct in values["decrypt_request"]]
    assert set(raised) == {("key", keys[0], marked), ("key", keys[1], marked),
                           ("c1", c1s[0], marked), ("c1", c1s[1], int)}
    assert len(raised) == 2 * n + n + 1


def reported_parts(value):
    """The value and everything inside it: container items, dict keys, dataclass fields."""
    yield value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from reported_parts(key)
            yield from reported_parts(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from reported_parts(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from reported_parts(getattr(value, field.name))


def test_pipeline_reports_plain_values_in_phase_order(tiny):
    # Voter 1 answers sample 0 and voter 2 both; voter 3 is silent, voter 4 in no sample.
    plan = SamplingPlan(4, ((1, 2, 2), (2, 3)))
    roles = [VoterRole(1, True), VoterRole(2, True), VoterRole(3, False, Behavior.SILENT),
             VoterRole(4, True)]
    reports = []
    results = hevs.run_pipeline(tiny, [1, 0, 1, 1], roles, plan,
                                [random.Random(i) for i in range(4)],
                                recorder=lambda *report: reports.append(report))
    assert [report[:2] for report in reports] == [
        *(("key", i) for i in range(1, 5)), ("broadcast", None),
        *(("vote", i) for i in range(1, 5)), ("decrypt_request", None),
        ("decrypt_share", 1), ("decrypt_share", 2), ("result", None)]
    values = {report[:2]: report[2] for report in reports}
    assert sorted(values["decrypt_share", 1]) == [0]
    assert sorted(values["decrypt_share", 2]) == [0, 1]
    assert len(values["broadcast", None]) == len(values["decrypt_request", None]) == plan.k
    assert all(isinstance(ct, Ciphertext) for ct in values["vote", 1])
    assert values["result", None] == results
    assert not [part for report in reports for part in reported_parts(report[2])
                if isinstance(part, str)]


def test_honest_voter_refuses_an_aggregate_equal_to_its_own_ciphertext(tiny):
    # Secrets (3, 5, 2), then nonces (1, 4, 7). Nonces 4 and 7 cancel in the
    # order-11 group, so the ciphertexts of voters 2 and 3 (votes 0) multiply
    # to (1, 1): the aggregate is voter 1's own ciphertext.
    plan = SamplingPlan(3, ((1, 2, 3),))
    rng = ScriptedRng([3, 5, 2, 1, 4, 7])
    with pytest.raises(RefuseSingletonAggregate):
        run_sampled_election(tiny, [1, 0, 0], honest_roles(3), plan, rng)
    # With one voter the aggregate is always the own ciphertext, and the sum
    # is that vote anyway, so the voter answers.
    for vote in (0, 1):
        rng = ScriptedRng([3, 4])
        (result,) = run_sampled_election(tiny, [vote], honest_roles(1),
                                         SamplingPlan(1, ((1,),)), rng)
        assert result.tally == vote

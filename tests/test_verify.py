from whitney import polar, verify


def test_all_suites_pass_at_small_scale():
    for suite in ("calculus", "stiefel", "polar", "axioms"):
        report = verify.run_suite(suite, seed=9, trials=10)
        assert report.ok, (suite, [p.name for p in report.properties if p.failures])
        assert report.properties


def test_suite_reports_deterministic():
    r1 = verify.run_suite("calculus", seed=4, trials=20)
    r2 = verify.run_suite("calculus", seed=4, trials=20)
    assert [(p.name, p.trials, p.failures) for p in r1.properties] == [
        (p.name, p.trials, p.failures) for p in r2.properties
    ]


def test_random_euler_functions_are_euler(corpus):
    import random

    from whitney import calculus as cal

    rng = random.Random(1)
    for entry in corpus.values():
        for _ in range(5):
            assert cal.is_euler_function(verify.random_euler_function(rng, entry.complex))


def test_polar_suite_reads_the_census(monkeypatch):
    def refuse(*args):
        raise AssertionError("euler_singularity_chain called from the polar suite")

    census, half_link_report = polar.polar_census, polar.half_link_report
    depth = []

    def counted_census(*args):
        depth.append(None)
        try:
            return census(*args)
        finally:
            depth.pop()

    def report_inside_census(*args):
        assert depth, "half_link_report called outside a polar_census"
        return half_link_report(*args)

    monkeypatch.setattr(polar, "euler_singularity_chain", refuse)
    monkeypatch.setattr(polar, "polar_census", counted_census)
    monkeypatch.setattr(polar, "half_link_report", report_inside_census)
    assert verify.run_suite("polar", seed=1, trials=10).ok


def test_projection_counterexample_holds_the_sampled_map(corpus, monkeypatch):
    # the plane of a failed projection check is written as a file that polar --map reads
    from fractions import Fraction

    from whitney import calculus as cal
    from whitney import fileio
    from whitney import homology as hom

    sampled = []
    sample = polar.sample_generic_subspace
    monkeypatch.setattr(polar, "sample_generic_subspace",
                        lambda a, rank, seed: sampled.append(sample(a, rank, seed)) or sampled[-1])
    monkeypatch.setattr(hom, "homologous", lambda k, c1, c2: False)
    name = "rp2_6_embedded"
    k = corpus[name].complex
    report = verify.run_polar_suite(1, 10, {name: corpus[name]})
    counterexample = report.prop("projection chain is homologous to the Stiefel chain").counterexample
    assert (counterexample["complex"], counterexample["i"], counterexample["basis_index"]) == (
        name, 0, 0)
    f, chain = sampled[0]
    g = fileio.affine_map_from_dict(counterexample["map"], k)
    assert {v: [Fraction(x, g.scale) for x in p] for v, p in g.images.items()} == {
        v: [Fraction(x, f.scale) for x in p] for v, p in f.images.items()}
    assert polar.polar_chain(g, cal.constant(k, 1, cal.RING_Z2)) == chain

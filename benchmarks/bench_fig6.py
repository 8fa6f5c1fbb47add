"""Bench ``fig6``: adjusted target p_ce(T_m) by inversion of eqn (38)."""

from repro.theory.inversion import _solve_alpha_ce

# The public adjusted_ce_alpha memoises its solutions; the kernel bench
# times the uncached root-find itself.
solve_alpha_ce = _solve_alpha_ce.__wrapped__


def test_fig6_series(bench_experiment):
    result = bench_experiment("fig6")
    # Within each (n, T_h) curve, alpha_ce decreases (p_ce rises) with T_m.
    curves = {}
    for row in result.rows:
        curves.setdefault((row["n"], row["T_h"]), []).append(row["alpha_ce"])
    for key, alphas in curves.items():
        assert alphas == sorted(alphas, reverse=True), key
    # Small T_m demands extreme conservatism (paper: p_ce << p_q).
    first = result.rows[0]
    assert first["log10_p_ce"] < -6.0


def test_fig6_inversion_kernel(benchmark):
    alpha = benchmark(
        lambda: solve_alpha_ce(1e-3, 10.0, 1.0, 100.0, 0.3, "separation")
    )
    assert alpha > 3.0

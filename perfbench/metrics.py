"""Names and units of every metric the benchmark prints.

``run.py`` checks these against ``BENCHMARK.json`` before each run, and
``tracing.py`` wraps exactly the functions listed here.

Which end-to-end metric each layer metric should move, and where:

- ``repeated10.rep_component_tables.*``: latency, ``ops_per_s`` and
  ``peak_rss_mb`` on analyze-mw10 (about 70% of its time, and its
  1024x1024 gather sets the peak); about 5% of verify-mw10; absent from
  small-games.
- ``equilibria.strictly_dominated.*``, ``cli.load_config.*`` and
  ``stagegames.Bimatrix.to_csv.*``: latency on analyze-mw10, each under
  10% of it.
- ``repeated10.play_sequential.*``, ``qstate.measure_pair.*``,
  ``qstate.apply_flips.*``, ``qstate.expectation.*`` and
  ``cli.compare_protocols.profiles_per_play``: latency on verify-mw10.
- ``mw.*``, ``iqbaltoor.*``, ``equilibria.cooperation_scan``,
  ``equilibria.spe_pair_product``, ``equilibria.pure_nash``,
  ``repeated10.factor_pairs``, ``repeated10.build_extensive``,
  ``stagegames.classical_twice_repeated`` and ``qstate.*.calls``:
  latency on small-games.
- Work at import time and the first fill of the ``_observables`` cache:
  ``setup_s`` on all three.
"""

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Public functions timed and counted in the traced run, as
# ``<module of qrgames>.<attribute path>``.
LAYER_FUNCTIONS = (
    "cli.load_config",
    "stagegames.classical_twice_repeated",
    "stagegames.Bimatrix.to_csv",
    "repeated10.rep_component_tables",
    "repeated10.play_sequential",
    "repeated10.factor_pairs",
    "repeated10.build_extensive",
    "qstate.apply_flips",
    "qstate.measure_pair",
    "qstate.expectation",
    "mw.mw_bimatrix",
    "iqbaltoor.it_pure_bimatrix",
    "iqbaltoor.it_expected",
    "iqbaltoor.it_stage1_pattern",
    "iqbaltoor.it_no_cooperation_check",
    "equilibria.pure_nash",
    "equilibria.strictly_dominated",
    "equilibria.spe_pair_product",
    "equilibria.cooperation_scan",
)

PER_LAYER = {
    **{
        f"{name}.{kind}": unit
        for name in LAYER_FUNCTIONS
        for kind, unit in (("calls", "calls/op"), ("self_ms", "ms/op"))
    },
    "qstate.measure_pair.kept_ratio": "ratio",
    "cli.compare_protocols.profiles_per_play": "ratio",
    "unattributed.self_ms": "ms/op",
    "trace.overhead_pct": "%",
}

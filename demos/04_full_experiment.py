"""Run the full experiment pipeline: synthetic data, model fitting, rolling
out-of-sample forecasts, comparison report with DM tests and VaR.

Run: python3 demos/04_full_experiment.py [OUT_DIR]
Outputs land in OUT_DIR, by default demos/out/.
"""

import sys
from pathlib import Path

from volforge import ExperimentConfig, run_experiment
from volforge.evaluation import report_text

config = ExperimentConfig(
    source="synth", synth_kind="cascade",
    synth_params=(("length", 1500), ("noise_sd", 0.3)),
    validation_len=200, test_len=200,
    models=("naive", "ewma", "har", "garch", "lstm"),
    rnn_windows=(5, 10, 22), rnn_epochs=10, rnn_units=10,
    metric="MSE", seed=0)

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "out"
report_v, report_t, manifest = run_experiment(config, out_dir=out)

print("test-window report (reference model: last enabled)\n")
print(report_text(report_t))
print(f"config hash: {manifest.config_hash[:16]}...")
print(f"artifacts written to {out}/ "
      "(reports, manifest, plot data, window-search log)")

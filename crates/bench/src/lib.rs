//! Shared harness utilities for the table/figure regenerator binaries.
//!
//! Every table and figure of the paper has a dedicated binary in `src/bin/`
//! (`table1` … `table5`, `fig4` … `fig15`); this library holds the pieces
//! they share: dataset sizing (overridable through environment variables so
//! CI can run small and a workstation can run close to paper scale), the
//! train/val/test split, and plain-text table rendering.
//!
//! | env var | meaning | default |
//! |---|---|---|
//! | `HERQULES_SHOTS` | shots generated per basis state | 1200 |
//! | `HERQULES_SEED` | master RNG seed | 20230612 |
//!
//! The paper uses 50 000 shots per state with a 19.5 / 10.5 / 70 split;
//! the defaults keep the same split ratios at reduced volume so every
//! regenerator finishes in minutes on a laptop.

use herqles_telemetry::StageTimer;
use readout_sim::dataset::DatasetSplit;
use readout_sim::{ChipConfig, Dataset};

/// Dataset sizing for a regenerator run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchConfig {
    /// Shots generated per basis state (paper: 50 000).
    pub shots_per_state: usize,
    /// Master seed for generation and splitting.
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            shots_per_state: 1200,
            seed: 20_230_612,
        }
    }
}

impl BenchConfig {
    /// Reads overrides from `HERQULES_SHOTS` / `HERQULES_SEED`.
    ///
    /// # Panics
    ///
    /// Panics if an override is set but unparsable, or shots is zero — a
    /// silently ignored override would invalidate a recorded experiment.
    pub fn from_env() -> Self {
        let mut cfg = BenchConfig::default();
        if let Ok(v) = std::env::var("HERQULES_SHOTS") {
            cfg.shots_per_state = v
                .parse()
                .expect("HERQULES_SHOTS must be a positive integer");
            assert!(cfg.shots_per_state > 0, "HERQULES_SHOTS must be positive");
        }
        if let Ok(v) = std::env::var("HERQULES_SEED") {
            cfg.seed = v.parse().expect("HERQULES_SEED must be an integer");
        }
        cfg
    }

    /// Generates the five-qubit dataset and the paper-ratio split
    /// (19.5 % train / 10.5 % val / 70 % test).
    pub fn standard_dataset(&self) -> (Dataset, DatasetSplit) {
        let config = ChipConfig::five_qubit_default();
        let t = StageTimer::start();
        let dataset = Dataset::generate(&config, self.shots_per_state, self.seed);
        eprintln!(
            "[harness] generated {} shots ({} per state) in {:.2} s",
            dataset.shots.len(),
            self.shots_per_state,
            t.elapsed_secs()
        );
        let split = dataset.split(0.195, 0.105, self.seed ^ 0x5117);
        (dataset, split)
    }
}

/// Returns a copy of the dataset truncated to the first `bins` demodulation
/// bins (raw traces cut to `bins × samples_per_bin` samples, window length
/// adjusted). Used to *retrain* duration-dependent designs like the baseline
/// FNN at shorter readout windows (Fig. 11a), which is exactly the retraining
/// HERQULES avoids.
///
/// # Panics
///
/// Panics if `bins` is zero or exceeds the configured window.
pub fn truncated_dataset(dataset: &Dataset, bins: usize) -> Dataset {
    assert!(
        bins > 0 && bins <= dataset.config.n_bins(),
        "bins out of range"
    );
    let mut config = dataset.config.clone();
    config.readout_duration_s = bins as f64 * config.demod_bin_s;
    let samples = config.n_samples();
    let shots = dataset
        .shots
        .iter()
        .map(|s| readout_sim::Shot {
            prepared: s.prepared,
            raw: s.raw.truncated(samples),
            truth: s.truth.clone(),
        })
        .collect();
    Dataset { config, shots }
}

/// Renders a plain-text table with aligned columns.
///
/// # Panics
///
/// Panics if any row width differs from the header width.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row width must match header");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let sep: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!(" {c:<w$} "))
            .collect::<Vec<_>>()
            .join("|")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_string()).collect();
    out.push_str(&fmt_row(&header_cells));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Formats a float with 3 decimals (accuracy-table convention).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 4 decimals (cross-fidelity convention).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_documented_values() {
        let c = BenchConfig::default();
        assert_eq!(c.shots_per_state, 1200);
        assert_eq!(c.seed, 20_230_612);
    }

    #[test]
    fn render_table_aligns_columns() {
        let out = render_table("T", &["a", "long-header"], &[vec!["xx".into(), "1".into()]]);
        assert!(out.contains("long-header"));
        assert!(out.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_panic() {
        let _ = render_table("T", &["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f3(0.92659), "0.927");
        assert_eq!(f4(0.00312), "0.0031");
    }
}

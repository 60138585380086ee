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

use std::fmt::Write as _;

use herqles_num::kernel::{active_kernel_name, select_kernel, KernelBackend};
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

/// Reads a `usize` environment override, panicking on an unparsable value —
/// a silently ignored override would invalidate a recorded experiment.
///
/// # Panics
///
/// Panics if the variable is set but does not parse as an integer.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{name} must be an integer"))
        })
        .unwrap_or(default)
}

/// Runs `f` with the scalar microkernel backend forced, restoring the
/// dispatched backend afterwards. Returns `None` (without running `f`) when
/// the dispatch already resolved to scalar — the caller's dispatched rows
/// are the scalar rows and a duplicate measurement would be misleading.
///
/// `bench_inference` uses this to append scalar-reference rows next to its
/// SIMD rows.
pub fn with_scalar_kernel<T>(f: impl FnOnce() -> T) -> Option<T> {
    let dispatched = active_kernel_name();
    if dispatched == "scalar" {
        return None;
    }
    select_kernel(KernelBackend::Scalar).expect("scalar is always selectable");
    let out = f();
    select_kernel(KernelBackend::parse(dispatched).expect("dispatched name parses"))
        .expect("restoring the dispatched backend");
    Some(out)
}

/// Incremental builder for the `BENCH_inference.json` document.
///
/// The builder owns the envelope — `benchmark` / `unit` / `cores` header
/// fields, optional run parameters, then one or more arrays of
/// pre-formatted row objects — with its comma placement and indentation;
/// the caller formats its own row objects.
///
/// Sections render in insertion order; `results` is a section like any
/// other, so optional arrays can precede it.
#[derive(Debug, Clone)]
pub struct JsonReport {
    head: String,
    sections: Vec<(&'static str, Vec<String>)>,
}

impl JsonReport {
    /// Starts a report with the standard header: `benchmark`, `unit`, and
    /// the machine's core count.
    pub fn new(benchmark: &str, unit: &str) -> Self {
        let mut head = String::new();
        let _ = writeln!(head, "  \"benchmark\": \"{benchmark}\",");
        let _ = writeln!(head, "  \"unit\": \"{unit}\",");
        let _ = writeln!(
            head,
            "  \"cores\": {},",
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        JsonReport {
            head,
            sections: Vec::new(),
        }
    }

    /// Appends a top-level scalar field (rendered with `Display`, so quote
    /// strings at the call site if needed).
    pub fn scalar(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        let _ = writeln!(self.head, "  \"{key}\": {value},");
        self
    }

    /// Appends one pre-formatted row object (no indentation, no trailing
    /// comma — the builder adds both) to the named array section, creating
    /// the section on first use.
    pub fn row(&mut self, section: &'static str, row: String) -> &mut Self {
        match self.sections.iter_mut().find(|(name, _)| *name == section) {
            Some((_, rows)) => rows.push(row),
            None => self.sections.push((section, vec![row])),
        }
        self
    }

    /// Renders the document.
    ///
    /// # Panics
    ///
    /// Panics if no section was added — an empty report is a harness bug.
    pub fn render(&self) -> String {
        assert!(!self.sections.is_empty(), "report has no row sections");
        let mut out = String::from("{\n");
        out.push_str(&self.head);
        for (k, (name, rows)) in self.sections.iter().enumerate() {
            let _ = writeln!(out, "  \"{name}\": [");
            for (j, row) in rows.iter().enumerate() {
                let comma = if j + 1 < rows.len() { "," } else { "" };
                let _ = writeln!(out, "    {row}{comma}");
            }
            let comma = if k + 1 < self.sections.len() { "," } else { "" };
            let _ = writeln!(out, "  ]{comma}");
        }
        out.push_str("}\n");
        out
    }

    /// Renders and writes the document to `path`, logging the write.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write(&self, path: &str) {
        std::fs::write(path, self.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("[bench] wrote {path}");
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

    #[test]
    fn json_report_renders_valid_envelope() {
        let mut rep = JsonReport::new("demo", "widgets_per_second");
        rep.scalar("shots_per_state", 12);
        rep.row("drift", "{\"a\": 1}".to_string());
        rep.row("results", "{\"b\": 2}".to_string());
        rep.row("results", "{\"b\": 3}".to_string());
        let out = rep.render();
        assert!(out.starts_with("{\n  \"benchmark\": \"demo\",\n"));
        assert!(out.contains("\"unit\": \"widgets_per_second\""));
        assert!(out.contains("\"shots_per_state\": 12,"));
        // Sections render in insertion order, rows comma-joined, the last
        // section unterminated.
        let drift = out.find("\"drift\": [").expect("drift section");
        let results = out.find("\"results\": [").expect("results section");
        assert!(drift < results);
        assert!(out.contains("    {\"b\": 2},\n    {\"b\": 3}\n  ]\n}\n"));
        assert!(out.contains("  ],\n"), "non-final section keeps its comma");
        // Structural sanity: balanced braces/brackets (rows are opaque, but
        // the envelope must not unbalance them).
        let count = |c: char| out.chars().filter(|&x| x == c).count();
        assert_eq!(count('{'), count('}'));
        assert_eq!(count('['), count(']'));
    }

    #[test]
    #[should_panic(expected = "no row sections")]
    fn empty_json_report_panics() {
        let _ = JsonReport::new("demo", "u").render();
    }

    #[test]
    fn env_usize_reads_default_when_unset() {
        assert_eq!(env_usize("HERQULES_BENCH_SURELY_UNSET_VAR", 7), 7);
    }

    #[test]
    fn with_scalar_kernel_restores_dispatch() {
        use herqles_num::kernel::active_kernel_name;
        let before = active_kernel_name();
        let ran = with_scalar_kernel(|| {
            assert_eq!(active_kernel_name(), "scalar");
            42
        });
        assert_eq!(active_kernel_name(), before);
        // On a scalar-only dispatch the closure must not run; on a SIMD
        // dispatch it must return the closure's value.
        match ran {
            Some(v) => {
                assert_eq!(v, 42);
                assert_ne!(before, "scalar");
            }
            None => assert_eq!(before, "scalar"),
        }
    }
}

//! Pool-threshold tuner: searches the thread pool's serial-fallback row
//! threshold and persists it, with the ISA and thread count it was measured
//! at, to a `TUNE_GEMM.json` the bench binaries load at startup.
//!
//! The default threshold is [`pool::PAR_MIN_ROWS`] (`< 32` rows run
//! serially); the *active* value ([`pool::par_min_rows`]) can be replaced by
//! an [`autotune`] search keyed on (thread count, detected ISA). Nothing here
//! changes how a GEMM blocks: every dense GEMM walks K in fixed 128-deep
//! panels (see [`crate::gemm`]).
//!
//! # Numerics
//!
//! Tuning never changes results: the threshold only decides whether a GEMM
//! is split across the pool, and row chunking is bitwise thread-invariant.

use crate::gemm;
use crate::matrix::Matrix;
use crate::pool;
use crate::simd;
use std::path::Path;
use std::time::Instant;

/// Environment variable naming an explicit tune-file path. Bench binaries
/// treat a file named here as authoritative: a thread-count or ISA mismatch
/// is a hard error rather than a silent mis-tune.
pub const TUNE_FILE_ENV: &str = "TENSOR_TUNE_FILE";

/// Default file name for a persisted config (committed at the workspace
/// root; bench binaries look there when [`TUNE_FILE_ENV`] is unset).
pub const TUNE_FILE_NAME: &str = "TUNE_GEMM.json";

/// Upper bound accepted for the pool threshold when loading a config — far
/// beyond useful, it only rejects corrupt files.
const MAX_TUNED_VALUE: usize = 1 << 20;

// ---------------------------------------------------------------------------
// Persisted config
// ---------------------------------------------------------------------------

/// A complete tuning result: the environment it was measured in (ISA,
/// thread count) plus the winning parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneConfig {
    /// [`simd::SimdLevel::name`] of the level active during the search.
    pub isa: String,
    /// Pool thread count the search ran at. Applying a config tuned for a
    /// different thread count silently mis-tunes, which is why the bench
    /// loaders check this field loudly.
    pub threads: usize,
    /// Tuned serial-fallback threshold for [`pool::run_row_chunks`].
    pub par_min_rows: usize,
}

impl TuneConfig {
    /// Snapshot of the currently active parameters (useful for tests and
    /// for writing a default file).
    pub fn current() -> TuneConfig {
        TuneConfig {
            isa: simd::level().name().to_string(),
            threads: pool::threads(),
            par_min_rows: pool::par_min_rows(),
        }
    }

    /// Validates every field.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match simd::SimdLevel::parse(&self.isa) {
            Some(Some(_)) => {}
            _ => return Err(format!("unknown isa name {:?}", self.isa)),
        }
        if self.threads == 0 || self.threads > pool::MAX_THREADS {
            return Err(format!(
                "threads = {} outside 1..={}",
                self.threads,
                pool::MAX_THREADS
            ));
        }
        if self.par_min_rows == 0 || self.par_min_rows > MAX_TUNED_VALUE {
            return Err(format!(
                "par_min_rows = {} outside 1..={MAX_TUNED_VALUE}",
                self.par_min_rows
            ));
        }
        Ok(())
    }

    /// Installs this config as the process-global active parameters.
    ///
    /// # Errors
    ///
    /// Returns the [`TuneConfig::validate`] failure unchanged; on error
    /// nothing is applied.
    pub fn apply(&self) -> Result<(), String> {
        self.validate()?;
        pool::set_par_min_rows(self.par_min_rows);
        Ok(())
    }

    /// Serialises to the `TUNE_GEMM.json` format.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"isa\": \"{}\",\n", self.isa));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!("  \"par_min_rows\": {}\n", self.par_min_rows));
        s.push_str("}\n");
        s
    }

    /// Parses (and validates) the `TUNE_GEMM.json` format. The parser is a
    /// keyword scanner over the fixed schema written by [`Self::to_json`] —
    /// the workspace has no JSON dependency, and validation rejects
    /// anything structurally off.
    ///
    /// # Errors
    ///
    /// Returns a description of the missing key or violated constraint.
    pub fn parse(json: &str) -> Result<TuneConfig, String> {
        let isa = string_field(json, "isa").ok_or("missing or malformed \"isa\"")?;
        let threads = usize_field(json, "threads").ok_or("missing or malformed \"threads\"")?;
        let par_min_rows =
            usize_field(json, "par_min_rows").ok_or("missing or malformed \"par_min_rows\"")?;
        let config = TuneConfig {
            isa,
            threads,
            par_min_rows,
        };
        config.validate()?;
        Ok(config)
    }

    /// Writes the config to `path` in the `TUNE_GEMM.json` format.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads and parses a config from `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O or parse failure as a string.
    pub fn load(path: &Path) -> Result<TuneConfig, String> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        TuneConfig::parse(&json).map_err(|e| format!("parsing {}: {e}", path.display()))
    }
}

/// Positions just past `"key"` + optional whitespace + `:` + whitespace.
fn after_key<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let at = json.find(&needle)?;
    let rest = json[at + needle.len()..].trim_start();
    Some(rest.strip_prefix(':')?.trim_start())
}

fn usize_field(json: &str, key: &str) -> Option<usize> {
    let rest = after_key(json, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn string_field(json: &str, key: &str) -> Option<String> {
    let rest = after_key(json, key)?.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

// ---------------------------------------------------------------------------
// The search
// ---------------------------------------------------------------------------

/// Deterministic non-trivial fill for timing workloads (xorshift-free LCG;
/// values in roughly `[-1, 1]`).
fn fill_workload(m: &mut Matrix, seed: u64) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    for v in m.as_mut_slice() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = ((state >> 33) as u32 % 2001) as f32 / 1000.0 - 1.0;
    }
}

/// Best-of-`reps` wall time of `f` in seconds.
fn best_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Sweeps the pool's serial-fallback threshold over small-batch GEMMs.
/// Only meaningful with a multi-worker pool; at one thread the threshold
/// is never consulted and the default is returned unchanged.
fn search_par_min_rows(reps: usize) -> usize {
    if pool::threads() <= 1 {
        return pool::par_min_rows();
    }
    let (k, n) = (256, 256);
    let mut b = Matrix::zeros(k, n);
    fill_workload(&mut b, 0x5EED_0003);
    let batches: Vec<Matrix> = [8usize, 16, 32, 64]
        .iter()
        .map(|&m| {
            let mut a = Matrix::zeros(m, k);
            fill_workload(&mut a, 0x5EED_0004 + m as u64);
            a
        })
        .collect();
    let mut out = Matrix::zeros(0, 0);

    let previous = pool::par_min_rows();
    let mut best = (f64::INFINITY, previous);
    for &threshold in &[8usize, 16, 32, 64, 128] {
        pool::set_par_min_rows(threshold);
        let t = best_time(reps, || {
            for a in &batches {
                gemm::blocked_gemm_into(a, &b, &mut out)
                    .expect("probe shapes are always conformable");
            }
        });
        if t < best.0 {
            best = (t, threshold);
        }
    }
    pool::set_par_min_rows(previous);
    best.1
}

/// Runs the threshold search at the **current** pool thread count and
/// active SIMD level and returns the winning config (not yet applied — call
/// [`TuneConfig::apply`] to install it, [`TuneConfig::save`] to persist).
///
/// The search times the real kernel path; bench binaries expose it behind
/// `--tune`.
pub fn autotune() -> TuneConfig {
    TuneConfig {
        isa: simd::level().name().to_string(),
        threads: pool::threads(),
        par_min_rows: search_par_min_rows(5),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let config = TuneConfig {
            isa: "avx2".to_string(),
            threads: 4,
            par_min_rows: 16,
        };
        let parsed = TuneConfig::parse(&config.to_json()).expect("roundtrip parse");
        assert_eq!(parsed, config);
    }

    #[test]
    fn parse_rejects_corrupt_configs() {
        let good = TuneConfig {
            par_min_rows: 32,
            ..TuneConfig::current()
        }
        .to_json();
        assert!(TuneConfig::parse(&good).is_ok());
        assert!(TuneConfig::parse("").is_err());
        assert!(TuneConfig::parse(&good.replace("\"threads\"", "\"t\"")).is_err());
        assert!(
            TuneConfig::parse(&good.replace("\"par_min_rows\": 32", "\"par_min_rows\": 0"))
                .is_err()
        );
        assert!(TuneConfig::parse(&good.replace(
            &format!("\"isa\": \"{}\"", simd::level().name()),
            "\"isa\": \"mmx\""
        ))
        .is_err());
    }

    #[test]
    fn apply_installs_and_reset_restores() {
        let mut config = TuneConfig::current();
        config.par_min_rows = 48;
        config.apply().expect("valid config applies");
        assert_eq!(pool::par_min_rows(), 48);
        pool::set_par_min_rows(pool::PAR_MIN_ROWS);
        assert_eq!(pool::par_min_rows(), pool::PAR_MIN_ROWS);
    }

    /// perfbench applies the committed file through [`TuneConfig::load`] and
    /// runs with the defaults when it cannot, so a stale or hand-edited file
    /// would silently change what the benchmark runs.
    #[test]
    fn committed_tune_file_is_what_save_writes() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(TUNE_FILE_NAME);
        let committed = std::fs::read_to_string(&path).expect("the workspace commits a tune file");
        let config = TuneConfig::load(&path).expect("the committed tune file is valid");
        assert_eq!(config.to_json(), committed);
    }
}

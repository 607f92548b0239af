//! The committed bench baselines and the `--check-baseline` gate.
//!
//! The repository commits the JSON emitted by `bench_hotpath`,
//! `bench_structured`, `bench_serve` and `bench_transformer`
//! (`BENCH_HOTPATH.json` / `BENCH_STRUCTURED.json` / `BENCH_SERVE.json` /
//! `BENCH_TRANSFORMER.json`) as the perf trajectory. Their
//! `--check-baseline` mode runs `check`: every number of the committed
//! file must still be declared by the fresh run, and every gated value
//! (a simulated or measured ratio, see [`crate::scorecard`]) must stay
//! within its kind's tolerance of the committed one. That turns CI from a
//! smoke runner into a perf-regression gate.
//!
//! Only ratios are compared, never absolute seconds or thread-scaling
//! factors: ratios are the part of a bench result that transfers between
//! machines (the committed numbers and the CI runner do not share
//! hardware), while scaling tracks the runner's core count. The workspace
//! has no crates.io access, so the JSON reader below is a minimal in-house
//! parser covering exactly the subset the bench binaries emit.

use crate::scorecard::Scorecard;
use std::collections::BTreeMap;

/// Flattened leaves of a JSON document: numbers keyed by `a.b.c` paths
/// (array elements use their index as a segment) plus string leaves for
/// metadata such as the bench `mode`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Leaves {
    /// Numeric leaves by dotted path.
    pub numbers: BTreeMap<String, f64>,
    /// String leaves by dotted path.
    pub strings: BTreeMap<String, String>,
}

/// Parses a JSON document into its flattened leaves.
///
/// # Errors
///
/// Returns a description of the first syntax error encountered.
pub fn parse_leaves(json: &str) -> Result<Leaves, String> {
    let mut parser = Parser {
        bytes: json.as_bytes(),
        pos: 0,
    };
    let mut leaves = Leaves::default();
    parser.skip_ws();
    parser.value("", &mut leaves)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing content at byte {}", parser.pos));
    }
    Ok(leaves)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn join(path: &str, key: &str) -> String {
        if path.is_empty() {
            key.to_string()
        } else {
            format!("{path}.{key}")
        }
    }

    fn value(&mut self, path: &str, leaves: &mut Leaves) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(path, leaves),
            Some(b'[') => self.array(path, leaves),
            Some(b'"') => {
                let s = self.string()?;
                leaves.strings.insert(path.to_string(), s);
                Ok(())
            }
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(_) => {
                let v = self.number()?;
                leaves.numbers.insert(path.to_string(), v);
                Ok(())
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self, path: &str, leaves: &mut Leaves) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value(&Self::join(path, &key), leaves)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, path: &str, leaves: &mut Leaves) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        let mut index = 0usize;
        loop {
            self.skip_ws();
            self.value(&Self::join(path, &index.to_string()), leaves)?;
            index += 1;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            // The bench output never emits \u escapes; skip
                            // the four hex digits and keep a placeholder.
                            self.pos += 4.min(self.bytes.len().saturating_sub(self.pos + 1));
                            out.push('?');
                        }
                        Some(b) => out.push(b as char),
                        None => return Err("unterminated escape".to_string()),
                    }
                    self.pos += 1;
                }
                Some(b) => {
                    out.push(b as char);
                    self.pos += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        token
            .parse::<f64>()
            .map_err(|_| format!("invalid number '{token}' at byte {start}"))
    }
}

/// What one `--check-baseline` comparison found.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Verdict {
    /// Gated values compared against the baseline.
    pub(crate) checked: usize,
    /// Gated values deliberately not compared, with the reason (only
    /// `simd.*` ratios across an ISA change).
    pub(crate) skipped: Vec<String>,
    /// One line per value that regressed, went missing or is not finite,
    /// or the one reason the two runs cannot be compared at all. Empty
    /// when the gate passes.
    pub(crate) failures: Vec<String>,
}

/// Compares the fresh run `fresh` against the `committed` baseline JSON.
///
/// * Both runs must record the same `mode`: a smoke run against a full
///   baseline compares nothing meaningful.
/// * Every number of the baseline must still be declared by the fresh run,
///   whatever its kind.
/// * Every gated value must be finite and may not drop below the baseline
///   by more than its `Kind::tolerance`; improvements always pass.
/// * `simd.*` ratios only transfer between machines with the same vector
///   ISA, so they are skipped, with a note, when the recorded `simd.isa`
///   strings differ. Every other ratio still gates.
pub(crate) fn check(committed: &str, fresh: &Scorecard) -> Verdict {
    let mut verdict = Verdict::default();
    let base = match parse_leaves(committed) {
        Ok(base) => base,
        Err(err) => {
            verdict.failures.push(format!("baseline JSON: {err}"));
            return verdict;
        }
    };
    let base_mode = base.strings.get("mode").map(String::as_str);
    if base_mode != Some(fresh.mode()) {
        verdict.failures.push(format!(
            "bench mode mismatch: baseline {base_mode:?} vs fresh run {:?} — compare like with like",
            fresh.mode()
        ));
        return verdict;
    }
    let isa_change = match (base.strings.get("simd.isa"), fresh.text_at("simd.isa")) {
        (Some(b), Some(f)) if b != f => Some((b.as_str(), f)),
        _ => None,
    };
    for (path, &b) in &base.numbers {
        let Some(value) = fresh.value(path) else {
            verdict.failures.push(format!(
                "{path}: present in baseline but missing from the fresh run"
            ));
            continue;
        };
        let Some(tolerance) = value.kind.tolerance() else {
            continue;
        };
        if let Some((base_isa, fresh_isa)) = isa_change.filter(|_| path.starts_with("simd.")) {
            verdict.skipped.push(format!(
                "{path}: skipped (baseline ISA {base_isa:?} vs fresh run {fresh_isa:?})"
            ));
            continue;
        }
        verdict.checked += 1;
        let f = value.value;
        if !f.is_finite() {
            verdict
                .failures
                .push(format!("{path}: {f} in the fresh run (baseline {b:.3})"));
        } else if f < b * (1.0 - tolerance) {
            verdict.failures.push(format!(
                "{path}: regressed to {f:.3} from baseline {b:.3} ({:+.1}% > {:.0}% tolerance)",
                (f / b - 1.0) * 100.0,
                tolerance * 100.0
            ));
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorecard::Kind;

    const BASELINE: &str = r#"{
      "mode": "full",
      "available_parallelism": 4,
      "dense_gemm": { "shape": [256, 512, 512], "single_thread_speedup_vs_seed": 6.0, "scaling_2_threads": 1.4, "packed_secs_by_threads": {"1": 0.005} },
      "row_compact": { "secs": 0.003, "speedup_vs_dense_1t": 1.7 }
    }"#;

    /// A hot-path-shaped run: the seed speedup and the row ratio are
    /// measured CPU ratios; shape, seconds and scaling are recorded.
    fn run(smoke: bool, isa: Option<&str>, seed_speedup: f64, row_speedup: f64) -> Scorecard {
        let mut card = Scorecard::new("bench_test", smoke);
        if let Some(isa) = isa {
            card.section("simd", |card| {
                card.text("isa", isa);
                card.cpu_ratio("dense_speedup", seed_speedup);
            });
        }
        card.section("dense_gemm", |card| {
            card.counts("shape", &[256, 512, 512]);
            card.cpu_ratio("single_thread_speedup_vs_seed", seed_speedup);
            card.recorded("scaling_2_threads", 1.4, 3);
            card.map("packed_secs_by_threads", &[(1, 0.005)], 6);
        });
        card.section("row_compact", |card| {
            card.secs("secs", 0.003);
            card.cpu_ratio("speedup_vs_dense_1t", row_speedup);
        });
        card
    }

    fn full(seed_speedup: f64) -> Scorecard {
        run(false, None, seed_speedup, 1.7)
    }

    #[test]
    fn parser_flattens_numbers_and_strings() {
        let leaves = parse_leaves(BASELINE).unwrap();
        assert_eq!(leaves.strings.get("mode").unwrap(), "full");
        assert_eq!(leaves.numbers["dense_gemm.shape.1"], 512.0);
        assert_eq!(leaves.numbers["dense_gemm.scaling_2_threads"], 1.4);
        assert_eq!(leaves.numbers["dense_gemm.packed_secs_by_threads.1"], 0.005);
        assert_eq!(leaves.numbers["row_compact.speedup_vs_dense_1t"], 1.7);
    }

    #[test]
    fn identical_runs_pass_the_gate() {
        let verdict = check(&full(6.0).json(), &full(6.0));
        assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
        // The two CPU ratios; shape, seconds and scaling_2_threads are
        // recorded, not gated.
        assert_eq!(verdict.checked, 2);
    }

    #[test]
    fn small_dips_within_tolerance_pass() {
        // 6.0 -> 5.4 is a 10% dip, inside every tolerance.
        let verdict = check(&full(6.0).json(), &full(5.4));
        assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
    }

    #[test]
    fn regressions_beyond_tolerance_fail_demonstrably() {
        // 6.0 -> 3.0 is a 50% drop, past even the measured-CPU tolerance:
        // the gate must fire.
        let verdict = check(&full(6.0).json(), &full(3.0));
        assert_eq!(verdict.failures.len(), 1);
        assert!(
            verdict.failures[0].contains("single_thread_speedup_vs_seed"),
            "{}",
            verdict.failures[0]
        );
    }

    #[test]
    fn simulated_ratios_are_gated_tighter_than_measured_ones() {
        assert_eq!(Kind::SimRatio.tolerance(), Some(0.15));
        assert_eq!(Kind::CpuRatio.tolerance(), Some(0.30));
        assert_eq!(Kind::Recorded.tolerance(), None);
        // A 20% dip passes on a measured CPU ratio…
        let verdict = check(&full(6.0).json(), &full(4.8));
        assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
        // …but the same dip on a simulated ratio fails.
        let sim = |speedup: f64| {
            let mut card = Scorecard::new("bench_test", false);
            card.sim_ratio("sim_iteration_speedup_gtx_1080ti", speedup);
            card
        };
        let verdict = check(&sim(6.0).json(), &sim(4.8));
        assert_eq!(verdict.failures.len(), 1);
    }

    #[test]
    fn improvements_never_fail() {
        let verdict = check(&full(6.0).json(), &full(9.0));
        assert!(verdict.failures.is_empty());
    }

    #[test]
    fn missing_ratio_keys_fail() {
        // Whatever its kind, a value of the committed file that the fresh
        // run no longer declares fails the gate.
        let with_extra = |declare: fn(&mut Scorecard)| {
            let mut card = full(6.0);
            declare(&mut card);
            card
        };
        for extra in [
            with_extra(|card| {
                card.cpu_ratio("fused_speedup", 1.1);
            }),
            with_extra(|card| {
                card.secs("fused_secs", 0.01);
            }),
        ] {
            let verdict = check(&extra.json(), &full(6.0));
            assert_eq!(verdict.failures.len(), 1, "{:?}", verdict.failures);
            assert!(verdict.failures[0].starts_with("fused_"));
            assert!(verdict.failures[0].contains("missing"));
            // A value only the fresh run declares is new, not missing.
            assert!(check(&full(6.0).json(), &extra).failures.is_empty());
        }
    }

    #[test]
    fn simd_ratios_skip_across_an_isa_change_but_still_gate_same_isa() {
        let with_simd = |isa: &str, speedup: f64| run(false, Some(isa), speedup, 1.7);
        // Same ISA: the simd ratio gates like any other measured ratio
        // (8.0 -> 2.0 is far past the tolerance).
        let verdict = check(&with_simd("avx2", 8.0).json(), &with_simd("avx2", 2.0));
        assert!(verdict
            .failures
            .iter()
            .any(|f| f.contains("simd.dense_speedup")));
        assert!(verdict.skipped.is_empty());
        // Different ISA: the simd ratio is skipped with a note — the two
        // vectorisation wins are not comparable — while every other ratio
        // still gates.
        let base = run(false, Some("avx2"), 8.0, 1.7).json();
        let verdict = check(&base, &run(false, Some("neon"), 2.0, 0.5));
        assert_eq!(verdict.skipped.len(), 1);
        assert!(verdict.skipped[0].contains("simd.dense_speedup"));
        assert_eq!(verdict.checked, 2);
        assert_eq!(verdict.failures.len(), 2, "{:?}", verdict.failures);
        assert!(verdict.failures.iter().all(|f| !f.starts_with("simd.")));
    }

    #[test]
    fn mode_mismatch_is_an_error_not_a_pass() {
        let verdict = check(&full(6.0).json(), &run(true, None, 6.0, 1.7));
        assert_eq!(verdict.failures.len(), 1);
        assert!(verdict.failures[0].contains("mode mismatch"));
    }

    #[test]
    fn malformed_json_is_reported() {
        assert!(parse_leaves("{ \"a\": }").is_err());
        assert!(parse_leaves("{ \"a\": 1 } trailing").is_err());
        let verdict = check("not json", &full(6.0));
        assert_eq!(verdict.failures.len(), 1);
        assert!(verdict.failures[0].starts_with("baseline JSON"));
    }

    #[test]
    fn committed_baselines_parse_and_expose_ratio_keys() {
        // The real committed files must stay parseable by this gate.
        for path in [
            "../../BENCH_HOTPATH.json",
            "../../BENCH_STRUCTURED.json",
            "../../BENCH_SERVE.json",
            "../../BENCH_TRANSFORMER.json",
        ] {
            let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
            let content = std::fs::read_to_string(&full).expect("committed bench JSON exists");
            let leaves = parse_leaves(&content).expect("committed bench JSON parses");
            assert!(
                !leaves.numbers.is_empty(),
                "{path} has no values to gate on"
            );
            assert!(leaves.strings.contains_key("mode"));
        }
    }
}

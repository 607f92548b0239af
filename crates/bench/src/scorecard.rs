//! The typed report behind the gated bench binaries (`bench_hotpath`,
//! `bench_structured`, `bench_serve`, `bench_transformer`).
//!
//! A bin declares every value it writes on a [`Scorecard`], in the order
//! the JSON lists them, as one of three kinds:
//!
//! * a **simulated ratio** from the deterministic gpu-sim model, gated at
//!   15% against the committed baseline;
//! * a **measured CPU ratio**, gated at 30%: shared runners swing real
//!   measurements by 10–20% run to run with no code change;
//! * a **recorded** value (seconds, latencies, counts, thread scaling),
//!   kept for inspection and never gated. Absolute times do not transfer
//!   between machines, and thread scaling tracks the runner's core count.
//!
//! The kind, not the key name, decides whether a value is gated. A floor
//! (`> t`, `≥ t`, `≤ t`, or just "finite") is attached to the declaration
//! it bounds through the returned [`Declared`] handle, and
//! [`Scorecard::require`] covers the structural gates that are not one
//! value. [`Scorecard::finish`] writes the JSON, runs the
//! `--check-baseline` comparison against the committed file
//! ([`crate::baseline`]), enforces the floors under `BENCH_ASSERT=1`,
//! prints every failure and exits non-zero once.
//!
//! Non-finite numbers are written as `null`, so a diverged run still
//! produces JSON the baseline parser reads; a non-finite gated or floored
//! value fails by its path.

use crate::baseline;

/// How a declared value is compared against the committed baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A deterministic simulated ratio: a drop beyond 15% fails.
    SimRatio,
    /// A measured CPU wall-clock ratio: a drop beyond 30% fails.
    CpuRatio,
    /// Recorded for inspection; never compared.
    Recorded,
}

impl Kind {
    /// The largest fractional drop below the baseline this kind tolerates,
    /// or `None` for values that are never gated.
    pub(crate) fn tolerance(self) -> Option<f64> {
        match self {
            Kind::SimRatio => Some(0.15),
            Kind::CpuRatio => Some(0.30),
            Kind::Recorded => None,
        }
    }
}

/// The bound a floor puts on its value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Bound {
    Finite,
    Above(f64),
    AtLeast(f64),
    AtMost(f64),
}

/// One declared number.
#[derive(Debug, Clone)]
pub(crate) struct Value {
    pub(crate) path: String,
    pub(crate) kind: Kind,
    pub(crate) value: f64,
    decimals: usize,
    floor: Option<Bound>,
    armed: bool,
}

impl Value {
    /// The floor failure of this value, if its floor is armed and broken.
    fn floor_failure(&self) -> Option<String> {
        let bound = self.floor.filter(|_| self.armed)?;
        let v = self.value;
        if !v.is_finite() {
            return Some(format!("{} is not finite ({v})", self.path));
        }
        let (holds, rule) = match bound {
            Bound::Finite => return None,
            Bound::Above(t) => (v > t, format!("> {t}")),
            Bound::AtLeast(t) => (v >= t, format!(">= {t}")),
            Bound::AtMost(t) => (v <= t, format!("<= {t}")),
        };
        (!holds).then(|| {
            let shown = self.decimals.max(3);
            format!("{} = {v:.shown$}, must be {rule}", self.path)
        })
    }
}

/// A value just declared on a [`Scorecard`], to attach its floor to.
/// Floors are enforced only under `BENCH_ASSERT=1`.
pub struct Declared<'a> {
    value: &'a mut Value,
    smoke: bool,
}

impl Declared<'_> {
    fn bound(self, bound: Bound) -> Self {
        self.value.floor = Some(bound);
        self
    }

    /// Fails unless the value is finite and strictly above `threshold`.
    pub fn above(self, threshold: f64) -> Self {
        self.bound(Bound::Above(threshold))
    }

    /// Fails unless the value is finite and at least `threshold`.
    pub fn at_least(self, threshold: f64) -> Self {
        self.bound(Bound::AtLeast(threshold))
    }

    /// Fails unless the value is finite and at most `threshold`.
    pub fn at_most(self, threshold: f64) -> Self {
        self.bound(Bound::AtMost(threshold))
    }

    /// Fails unless the value is finite.
    pub fn finite(self) -> Self {
        self.bound(Bound::Finite)
    }

    /// Arms the floor on full runs only: smoke shapes are too small to
    /// time reliably.
    pub fn full_only(self) -> Self {
        let smoke = self.smoke;
        self.when(!smoke)
    }

    /// Arms the floor only when `armed` holds.
    pub fn when(self, armed: bool) -> Self {
        self.value.armed &= armed;
        self
    }
}

/// One bench run's values, floors and JSON, built in output order.
#[derive(Debug, Clone)]
pub struct Scorecard {
    label: &'static str,
    smoke: bool,
    /// The JSON written so far; [`Scorecard::json`] closes it.
    json: String,
    /// Keys of the open sections, outermost first.
    sections: Vec<String>,
    /// `true` until the innermost open object has a member.
    empty: bool,
    values: Vec<Value>,
    strings: Vec<(String, String)>,
    unmet: Vec<String>,
}

impl Scorecard {
    /// Starts the report of the bench bin `label` (`bench_<name>`, which
    /// writes `BENCH_<NAME>.json`). Every report opens with the bench
    /// `mode` and the machine's `available_parallelism`.
    pub fn new(label: &'static str, smoke: bool) -> Self {
        let mut card = Self {
            label,
            smoke,
            json: String::from("{"),
            sections: Vec::new(),
            empty: true,
            values: Vec::new(),
            strings: Vec::new(),
            unmet: Vec::new(),
        };
        card.text("mode", card.mode());
        card.count("available_parallelism", crate::available_cores());
        card
    }

    /// `"smoke"` or `"full"`.
    pub(crate) fn mode(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }

    fn path(&self, key: &str) -> String {
        let mut path = String::new();
        for section in &self.sections {
            path.push_str(section);
            path.push('.');
        }
        path.push_str(key);
        path
    }

    /// Opens a member of the innermost object: separator, indentation and
    /// the quoted key.
    fn member(&mut self, key: &str) {
        self.json.push_str(if self.empty { "\n" } else { ",\n" });
        self.empty = false;
        let indent = 2 * (self.sections.len() + 1);
        self.json.push_str(&" ".repeat(indent));
        self.json.push_str(&quote(key));
        self.json.push_str(": ");
    }

    fn push(&mut self, path: String, kind: Kind, value: f64, decimals: usize) -> Declared<'_> {
        self.values.push(Value {
            path,
            kind,
            value,
            decimals,
            floor: None,
            armed: true,
        });
        let smoke = self.smoke;
        let value = self.values.last_mut().expect("just pushed");
        Declared { value, smoke }
    }

    fn number(&mut self, key: &str, kind: Kind, value: f64, decimals: usize) -> Declared<'_> {
        self.member(key);
        self.json.push_str(&number(value, decimals));
        self.push(self.path(key), kind, value, decimals)
    }

    /// Declares a simulated ratio (3 decimals, gated at 15%).
    pub fn sim_ratio(&mut self, key: &str, value: f64) -> Declared<'_> {
        self.number(key, Kind::SimRatio, value, 3)
    }

    /// Declares a measured CPU ratio (3 decimals, gated at 30%).
    pub fn cpu_ratio(&mut self, key: &str, value: f64) -> Declared<'_> {
        self.number(key, Kind::CpuRatio, value, 3)
    }

    /// Declares a recorded value written with `decimals` decimals.
    pub fn recorded(&mut self, key: &str, value: f64, decimals: usize) -> Declared<'_> {
        self.number(key, Kind::Recorded, value, decimals)
    }

    /// Declares recorded seconds (6 decimals).
    pub fn secs(&mut self, key: &str, secs: f64) -> Declared<'_> {
        self.recorded(key, secs, 6)
    }

    /// Declares recorded microseconds (1 decimal).
    pub fn micros(&mut self, key: &str, us: f64) -> Declared<'_> {
        self.recorded(key, us, 1)
    }

    /// Declares a recorded count.
    pub fn count(&mut self, key: &str, n: usize) -> Declared<'_> {
        self.recorded(key, n as f64, 0)
    }

    /// Records a list of counts inline, e.g. a GEMM shape `[256, 512, 512]`.
    pub fn counts(&mut self, key: &str, ns: &[usize]) {
        let path = self.path(key);
        self.member(key);
        let items: Vec<String> = ns.iter().map(usize::to_string).collect();
        self.json.push_str(&format!("[{}]", items.join(", ")));
        for (i, &n) in ns.iter().enumerate() {
            self.push(format!("{path}.{i}"), Kind::Recorded, n as f64, 0);
        }
    }

    /// Records numbers keyed by a count as one inline object, e.g. seconds
    /// by thread count `{"1": 0.005, "2": 0.003}`.
    pub fn map(&mut self, key: &str, entries: &[(usize, f64)], decimals: usize) {
        let path = self.path(key);
        self.member(key);
        let items: Vec<String> = entries
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", number(*v, decimals)))
            .collect();
        self.json.push_str(&format!("{{{}}}", items.join(", ")));
        for &(k, value) in entries {
            self.push(format!("{path}.{k}"), Kind::Recorded, value, decimals);
        }
    }

    /// Records a string.
    pub fn text(&mut self, key: &str, text: &str) {
        self.member(key);
        self.json.push_str(&quote(text));
        self.strings.push((self.path(key), text.to_string()));
    }

    /// Records a list of strings inline.
    pub fn texts(&mut self, key: &str, texts: &[String]) {
        self.member(key);
        let items: Vec<String> = texts.iter().map(|t| quote(t)).collect();
        self.json.push_str(&format!("[{}]", items.join(", ")));
    }

    /// Writes the values `body` declares as the nested object `key`.
    pub fn section(&mut self, key: &str, body: impl FnOnce(&mut Self)) {
        self.member(key);
        self.json.push('{');
        self.sections.push(key.to_string());
        self.empty = true;
        body(self);
        if !self.empty {
            self.json.push('\n');
            self.json.push_str(&" ".repeat(2 * self.sections.len()));
        }
        self.json.push('}');
        self.sections.pop();
        self.empty = false;
    }

    /// A structural gate that is not one value: `holds` must be true, or
    /// `BENCH_ASSERT` fails with `what`.
    pub fn require(&mut self, holds: bool, what: impl Into<String>) {
        if !holds {
            self.unmet.push(what.into());
        }
    }

    /// The declared number at a dotted `path`.
    pub(crate) fn value(&self, path: &str) -> Option<&Value> {
        self.values.iter().find(|v| v.path == path)
    }

    /// The recorded string at a dotted `path`.
    pub(crate) fn text_at(&self, path: &str) -> Option<&str> {
        self.strings
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, t)| t.as_str())
    }

    /// The finished JSON document.
    pub(crate) fn json(&self) -> String {
        format!("{}\n}}\n", self.json)
    }

    /// Every armed floor the run breaks, in declaration order, then every
    /// unmet [`Scorecard::require`].
    pub(crate) fn floor_failures(&self) -> Vec<String> {
        self.values
            .iter()
            .filter_map(Value::floor_failure)
            .chain(self.unmet.iter().cloned())
            .collect()
    }

    /// Writes the JSON to `BENCH_<NAME>_OUT` (default: the committed
    /// `BENCH_<NAME>.json` at the repository root) and prints it. With
    /// `--check-baseline` the run is compared against the committed file,
    /// read before this run overwrites it; with `BENCH_ASSERT=1` the floors
    /// are enforced. Every failure is printed, then the process exits 1.
    pub fn finish(self) {
        let label = self.label;
        let name = label.trim_start_matches("bench_").to_uppercase();
        let committed = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
        let out = std::env::var(format!("BENCH_{name}_OUT")).unwrap_or_else(|_| committed.clone());
        let baseline = std::env::args()
            .any(|a| a == "--check-baseline")
            .then(|| std::fs::read_to_string(&committed));
        let json = self.json();
        if let Err(err) = std::fs::write(&out, &json) {
            eprintln!("{label}: cannot write {out}: {err}");
            std::process::exit(1);
        }
        println!("{json}");
        eprintln!("{label}: wrote {out}");

        let mut failures = Vec::new();
        match baseline {
            None => {}
            Some(Err(err)) => {
                failures.push(format!("cannot read committed baseline {committed}: {err}"));
            }
            Some(Ok(text)) => {
                let verdict = baseline::check(&text, &self);
                for note in &verdict.skipped {
                    eprintln!("{label}: note: {note}");
                }
                if verdict.failures.is_empty() {
                    eprintln!(
                        "{label}: baseline check passed ({} ratios within tolerance of \
                         {committed}; simulated 15%, measured CPU 30%)",
                        verdict.checked
                    );
                }
                failures.extend(verdict.failures);
            }
        }
        if std::env::var("BENCH_ASSERT").is_ok_and(|v| v != "0") {
            let floors = self.floor_failures();
            if floors.is_empty() {
                eprintln!("{label}: BENCH_ASSERT passed");
            }
            failures.extend(floors);
        }
        if !failures.is_empty() {
            eprintln!("{label}: {} failure(s):", failures.len());
            for failure in &failures {
                eprintln!("  - {failure}");
            }
            std::process::exit(1);
        }
    }
}

/// A JSON number at `decimals` decimals; `null` when not finite (Rust
/// would print `NaN` / `inf`, which is not JSON).
fn number(value: f64, decimals: usize) -> String {
    if value.is_finite() {
        format!("{value:.decimals$}")
    } else {
        "null".to_string()
    }
}

fn quote(text: &str) -> String {
    format!("\"{}\"", text.replace('\\', "\\\\").replace('"', "\\\""))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{check, parse_leaves};

    #[test]
    fn the_kind_not_the_name_decides_gating() {
        let run = |speedup: f64, bound: f64| {
            let mut card = Scorecard::new("bench_test", false);
            card.recorded("tile_speedup_by_size", speedup, 3);
            card.cpu_ratio("p99_bound_ratio_unprotected_over_protected", bound);
            card
        };
        let base = run(2.0, 8.0).json();
        // A recorded value keyed `…speedup…` may drop 90%…
        let verdict = check(&base, &run(0.2, 8.0));
        assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
        assert_eq!(verdict.checked, 1);
        // …while a CPU ratio with no `speedup` in its name is gated.
        let verdict = check(&base, &run(2.0, 4.0));
        assert_eq!(verdict.failures.len(), 1);
        assert!(verdict.failures[0].contains("p99_bound_ratio"));
    }

    #[test]
    fn a_strict_floor_fails_at_its_threshold_and_an_at_least_floor_passes() {
        let mut card = Scorecard::new("bench_test", false);
        card.cpu_ratio("strict", 1.0).above(1.0);
        card.cpu_ratio("at_least", 1.0).at_least(1.0);
        card.micros("ceiling", 25.0).at_most(25.0);
        let failures = card.floor_failures();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("strict = 1.000"), "{}", failures[0]);
    }

    #[test]
    fn full_only_floors_do_not_fire_in_smoke_mode() {
        let declare = |smoke: bool| {
            let mut card = Scorecard::new("bench_test", smoke);
            card.cpu_ratio("timed", 0.5).above(1.0).full_only();
            card.sim_ratio("simulated", 0.5).above(1.0);
            card.count("gated_elsewhere", 0).at_least(1.0).when(false);
            card.require(smoke, "structural");
            card.floor_failures()
        };
        assert_eq!(declare(true), vec!["simulated = 0.500, must be > 1"]);
        assert_eq!(declare(false).len(), 3);
    }

    #[test]
    fn output_round_trips_through_the_parser_in_declaration_order() {
        let mut card = Scorecard::new("bench_test", true);
        card.text("isa", "avx2");
        card.section("zeta", |card| {
            card.counts("shape", &[4, 8]);
            card.map("secs_by_threads", &[(1, 0.5), (2, 0.25)], 6);
            card.section("nested", |card| {
                card.sim_ratio("sim", 1.5);
            });
            card.micros("p99_us", 12.5);
        });
        card.section("alpha", |card| {
            card.recorded("rate", 0.5, 2);
            card.texts("names", &["a \"b\"".to_string()]);
        });
        let json = card.json();
        let leaves = parse_leaves(&json).unwrap();
        let declared: Vec<(&str, f64)> = card
            .values
            .iter()
            .map(|v| (v.path.as_str(), v.value))
            .collect();
        let parsed: Vec<(&str, f64)> = leaves
            .numbers
            .iter()
            .map(|(p, &v)| (p.as_str(), v))
            .collect();
        let mut sorted = declared.clone();
        sorted.sort_by(|a, b| a.0.cmp(b.0));
        assert_eq!(parsed, sorted);
        assert_eq!(leaves.strings["mode"], "smoke");
        assert_eq!(leaves.strings["alpha.names.0"], "a \"b\"");
        // parse_leaves sorts its keys, so check the written order directly:
        // the keys appear in the document exactly as declared.
        let positions: Vec<usize> = [
            "\"mode\"",
            "\"isa\"",
            "\"zeta\"",
            "\"shape\"",
            "\"nested\"",
            "\"p99_us\"",
            "\"alpha\"",
            "\"rate\"",
        ]
        .iter()
        .map(|key| json.find(key).unwrap())
        .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]), "{json}");
        assert!(json.contains("\n  \"zeta\": {\n    \"shape\": [4, 8],\n    \"secs_by_threads\": {\"1\": 0.500000, \"2\": 0.250000},\n"));
        assert!(json.ends_with("\n  }\n}\n"));
    }

    #[test]
    fn non_finite_values_write_null_and_fail_by_path() {
        let run = |perplexity: f64, ratio: f64| {
            let mut card = Scorecard::new("bench_test", false);
            card.section("curve", |card| {
                card.recorded("perplexity", perplexity, 4).finite();
                card.cpu_ratio("p99_bound_ratio", ratio).at_least(2.0);
            });
            card
        };
        let diverged = run(f64::NAN, f64::INFINITY);
        let json = diverged.json();
        assert!(json.contains("\"perplexity\": null"), "{json}");
        let leaves = parse_leaves(&json).expect("non-finite values still parse");
        assert!(!leaves.numbers.contains_key("curve.perplexity"));
        let failures = diverged.floor_failures();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("curve.perplexity"));
        assert!(failures[1].contains("curve.p99_bound_ratio"));
        // The baseline gate names a non-finite gated ratio too, instead of
        // letting `inf < baseline` (false) pass it.
        let verdict = check(&run(40.0, 7.0).json(), &diverged);
        assert_eq!(verdict.failures.len(), 1, "{:?}", verdict.failures);
        assert!(verdict.failures[0].contains("curve.p99_bound_ratio"));
    }
}

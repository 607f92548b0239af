//! [`SchemeSpec`] — the single plain-data description of a dropout scheme.
//!
//! Every layer of the repo that needs to *name* a scheme configuration —
//! the serving catalog, the bench binaries, examples, CLI flags — used to
//! grow its own ad-hoc surface (the serve crate had a private `SchemeKind`
//! enum, the bench crate hand-rolled constructor calls). `SchemeSpec`
//! unifies them: one `Copy` enum that mirrors the [`crate::scheme`]
//! constructors, parses from a compact text form ([`FromStr`]), prints the
//! same form back ([`fmt::Display`], round-tripping exactly), and
//! materializes the boxed [`DropoutScheme`] with [`SchemeSpec::build`].
//!
//! The text grammar is `family[:param[:param...]]` with one canonical
//! spelling per family:
//!
//! | spec                  | scheme                                        |
//! |-----------------------|-----------------------------------------------|
//! | `none`                | dense execution, no dropout                   |
//! | `bernoulli:0.5`       | conventional per-unit Bernoulli               |
//! | `divergent:0.5`       | in-kernel `if (kept)` skip (anti-pattern)     |
//! | `row:0.5:8`           | row patterns, rate 0.5, periods up to 8       |
//! | `tile:0.5:8:32`       | 32×32 tile patterns, rate 0.5, periods ≤ 8    |
//! | `nm:2:4`              | keep 2 of every 4 output lanes (N:M)          |
//! | `block:0.5:16`        | block-structured unit dropout, 16-wide blocks |
//! | `crs:0.5`             | sampled GEMM, keep half the inner dimension   |
//! | `row_crs:0.5:8:0.5`   | composed row dropout × CRS sampling           |
//! | `transformer:0.25:64` | whole-head attention dropout, 64-wide heads   |
//!
//! Parsing reports a typed [`SchemeSpecError`]; parameter *ranges* are not
//! checked until [`SchemeSpec::validate`] / [`SchemeSpec::build`], so a
//! spec can describe a configuration before deciding whether it is legal.

use crate::error::DropoutError;
use crate::rate::DropoutRate;
use crate::scheme::{self, DropoutScheme};
use crate::search::MAX_DP;
use std::fmt;
use std::str::FromStr;

/// Plain-data description of a dropout scheme; see the module docs for the
/// text grammar each variant round-trips through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemeSpec {
    /// No dropout (dense execution).
    None,
    /// Conventional per-unit Bernoulli dropout (the paper's baseline).
    Bernoulli {
        /// Dropout rate in `(0, 1)`.
        rate: f64,
    },
    /// Bernoulli numerics scheduled as the divergent in-kernel skip — the
    /// paper's motivating anti-pattern, priced but never faster.
    Divergent {
        /// Dropout rate in `(0, 1)`.
        rate: f64,
    },
    /// Row-based Dropout Pattern via Algorithm 1.
    Row {
        /// Target global dropout rate.
        rate: f64,
        /// Maximum pattern period explored by the search, in
        /// `2..=`[`MAX_DP`].
        max_dp: usize,
    },
    /// Tile-based Dropout Pattern via Algorithm 1 (32×32 tiles by default).
    Tile {
        /// Target global dropout rate.
        rate: f64,
        /// Maximum pattern period explored by the search, in
        /// `2..=`[`MAX_DP`].
        max_dp: usize,
        /// Tile edge length (32 in the paper).
        tile: usize,
    },
    /// N:M structured sparsity (keep `n` of every `m` output lanes).
    Nm {
        /// Kept lanes per group.
        n: usize,
        /// Group width.
        m: usize,
    },
    /// Block-structured unit dropout.
    Block {
        /// Per-block drop probability.
        rate: f64,
        /// Contiguous block width.
        block: usize,
    },
    /// Sampled GEMM under column-row sampling (CRS): keep a `keep` fraction
    /// of the inner (K) dimension, scaled by `K/k` for unbiasedness.
    Crs {
        /// Kept fraction of the inner dimension, in `(0, 1]`.
        keep: f64,
    },
    /// Composed row-dropout × CRS: row dropout compacts the output (N)
    /// dimension while CRS samples the inner (K) dimension of the same
    /// kernel call.
    RowCrs {
        /// Target global dropout rate of the row axis.
        rate: f64,
        /// Maximum pattern period explored by the row search, in
        /// `2..=`[`MAX_DP`].
        max_dp: usize,
        /// Kept fraction of the inner dimension, in `(0, 1]`.
        keep: f64,
    },
    /// Whole-head attention dropout for the transformer family: each head
    /// is one contiguous `head_dim`-wide unit block of the attention
    /// output, dropped as a unit (SDropout on attention). Builds as
    /// [`scheme::block_unit`] with `block = head_dim`, inheriting the
    /// never-fully-dark guard — at least one head survives every plan.
    Transformer {
        /// Per-head drop probability in `[0, 1)`.
        rate: f64,
        /// Width of one attention head (the block unit).
        head_dim: usize,
    },
}

/// Why a scheme spec string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemeSpecError {
    /// The family name (the part before the first `:`) is not recognized.
    UnknownFamily(String),
    /// The family takes a different number of `:`-separated parameters.
    WrongArity {
        /// Family that was being parsed.
        family: &'static str,
        /// Parameters the family requires.
        expected: usize,
        /// Parameters the input supplied.
        got: usize,
    },
    /// A parameter failed to parse as a number.
    BadNumber {
        /// Family that was being parsed.
        family: &'static str,
        /// The offending parameter text.
        value: String,
    },
}

impl fmt::Display for SchemeSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeSpecError::UnknownFamily(name) => write!(
                f,
                "unknown scheme family {name:?} (expected one of: none, bernoulli, divergent, \
                 row, tile, nm, block, crs, row_crs, transformer)"
            ),
            SchemeSpecError::WrongArity {
                family,
                expected,
                got,
            } => write!(
                f,
                "scheme family {family:?} takes {expected} parameter(s), got {got}"
            ),
            SchemeSpecError::BadNumber { family, value } => {
                write!(f, "scheme family {family:?}: {value:?} is not a number")
            }
        }
    }
}

impl std::error::Error for SchemeSpecError {}

impl SchemeSpec {
    /// The family name this spec prints and parses under.
    pub fn family(&self) -> &'static str {
        match self {
            SchemeSpec::None => "none",
            SchemeSpec::Bernoulli { .. } => "bernoulli",
            SchemeSpec::Divergent { .. } => "divergent",
            SchemeSpec::Row { .. } => "row",
            SchemeSpec::Tile { .. } => "tile",
            SchemeSpec::Nm { .. } => "nm",
            SchemeSpec::Block { .. } => "block",
            SchemeSpec::Crs { .. } => "crs",
            SchemeSpec::RowCrs { .. } => "row_crs",
            SchemeSpec::Transformer { .. } => "transformer",
        }
    }

    /// Checks parameter ranges without running the (potentially expensive)
    /// pattern-distribution search that [`SchemeSpec::build`] performs.
    pub fn validate(&self) -> Result<(), DropoutError> {
        let rate_ok = |r: f64| DropoutRate::new(r).map(|_| ());
        match *self {
            SchemeSpec::None => Ok(()),
            SchemeSpec::Bernoulli { rate } | SchemeSpec::Divergent { rate } => rate_ok(rate),
            SchemeSpec::Row { rate, max_dp } => {
                rate_ok(rate)?;
                if !(2..=MAX_DP).contains(&max_dp) {
                    return Err(DropoutError::InvalidPattern(format!(
                        "row scheme needs max_dp in 2..={MAX_DP}, got {max_dp}"
                    )));
                }
                Ok(())
            }
            SchemeSpec::Tile { rate, max_dp, tile } => {
                rate_ok(rate)?;
                if !(2..=MAX_DP).contains(&max_dp) {
                    return Err(DropoutError::InvalidPattern(format!(
                        "tile scheme needs max_dp in 2..={MAX_DP}, got {max_dp}"
                    )));
                }
                if tile == 0 {
                    return Err(DropoutError::InvalidPattern(
                        "tile scheme needs a nonzero tile edge".into(),
                    ));
                }
                Ok(())
            }
            SchemeSpec::Nm { n, m } => {
                if n == 0 || m == 0 || n > m {
                    return Err(DropoutError::InvalidPattern(format!(
                        "n:m sparsity needs 1 <= n <= m, got {n}:{m}"
                    )));
                }
                Ok(())
            }
            SchemeSpec::Block { rate, block } => {
                rate_ok(rate)?;
                if block == 0 {
                    return Err(DropoutError::InvalidPattern(
                        "block scheme needs a nonzero block width".into(),
                    ));
                }
                Ok(())
            }
            SchemeSpec::Crs { keep } => {
                if !(keep > 0.0 && keep <= 1.0) {
                    return Err(DropoutError::InvalidPattern(format!(
                        "crs keep fraction must be in (0, 1], got {keep}"
                    )));
                }
                Ok(())
            }
            SchemeSpec::RowCrs { rate, max_dp, keep } => {
                SchemeSpec::Row { rate, max_dp }.validate()?;
                SchemeSpec::Crs { keep }.validate()
            }
            SchemeSpec::Transformer { rate, head_dim } => {
                rate_ok(rate)?;
                if head_dim == 0 {
                    return Err(DropoutError::InvalidPattern(
                        "transformer scheme needs a nonzero head_dim".into(),
                    ));
                }
                Ok(())
            }
        }
    }

    /// Materializes the boxed [`DropoutScheme`] (running Algorithm 1 for
    /// the pattern families), or reports why the configuration is invalid.
    /// It runs [`SchemeSpec::validate`] first, so the two accept exactly the
    /// same specs.
    pub fn build(&self) -> Result<Box<dyn DropoutScheme>, DropoutError> {
        self.validate()?;
        let rate = |r: f64| DropoutRate::new(r);
        match *self {
            SchemeSpec::None => Ok(scheme::none()),
            SchemeSpec::Bernoulli { rate: r } => Ok(scheme::bernoulli(rate(r)?)),
            SchemeSpec::Divergent { rate: r } => Ok(scheme::divergent_bernoulli(rate(r)?)),
            SchemeSpec::Row { rate: r, max_dp } => scheme::row(rate(r)?, max_dp),
            SchemeSpec::Tile {
                rate: r,
                max_dp,
                tile,
            } => scheme::tile(rate(r)?, max_dp, tile),
            SchemeSpec::Nm { n, m } => scheme::nm(n, m),
            SchemeSpec::Block { rate: r, block } => scheme::block_unit(rate(r)?, block),
            SchemeSpec::Crs { keep } => scheme::crs(keep),
            SchemeSpec::RowCrs {
                rate: r,
                max_dp,
                keep,
            } => scheme::row_crs(rate(r)?, max_dp, keep),
            SchemeSpec::Transformer { rate: r, head_dim } => scheme::block_unit(rate(r)?, head_dim),
        }
    }
}

impl fmt::Display for SchemeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SchemeSpec::None => write!(f, "none"),
            SchemeSpec::Bernoulli { rate } => write!(f, "bernoulli:{rate}"),
            SchemeSpec::Divergent { rate } => write!(f, "divergent:{rate}"),
            SchemeSpec::Row { rate, max_dp } => write!(f, "row:{rate}:{max_dp}"),
            SchemeSpec::Tile { rate, max_dp, tile } => write!(f, "tile:{rate}:{max_dp}:{tile}"),
            SchemeSpec::Nm { n, m } => write!(f, "nm:{n}:{m}"),
            SchemeSpec::Block { rate, block } => write!(f, "block:{rate}:{block}"),
            SchemeSpec::Crs { keep } => write!(f, "crs:{keep}"),
            SchemeSpec::RowCrs { rate, max_dp, keep } => {
                write!(f, "row_crs:{rate}:{max_dp}:{keep}")
            }
            SchemeSpec::Transformer { rate, head_dim } => {
                write!(f, "transformer:{rate}:{head_dim}")
            }
        }
    }
}

impl FromStr for SchemeSpec {
    type Err = SchemeSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(':');
        let family = parts.next().unwrap_or("").trim();
        let params: Vec<&str> = parts.map(str::trim).collect();
        let arity = |name: &'static str, expected: usize| {
            if params.len() == expected {
                Ok(())
            } else {
                Err(SchemeSpecError::WrongArity {
                    family: name,
                    expected,
                    got: params.len(),
                })
            }
        };
        fn num<T: FromStr>(family: &'static str, value: &str) -> Result<T, SchemeSpecError> {
            value.parse().map_err(|_| SchemeSpecError::BadNumber {
                family,
                value: value.to_string(),
            })
        }
        match family {
            "none" => {
                arity("none", 0)?;
                Ok(SchemeSpec::None)
            }
            "bernoulli" => {
                arity("bernoulli", 1)?;
                Ok(SchemeSpec::Bernoulli {
                    rate: num("bernoulli", params[0])?,
                })
            }
            "divergent" => {
                arity("divergent", 1)?;
                Ok(SchemeSpec::Divergent {
                    rate: num("divergent", params[0])?,
                })
            }
            "row" => {
                arity("row", 2)?;
                Ok(SchemeSpec::Row {
                    rate: num("row", params[0])?,
                    max_dp: num("row", params[1])?,
                })
            }
            "tile" => {
                arity("tile", 3)?;
                Ok(SchemeSpec::Tile {
                    rate: num("tile", params[0])?,
                    max_dp: num("tile", params[1])?,
                    tile: num("tile", params[2])?,
                })
            }
            "nm" => {
                arity("nm", 2)?;
                Ok(SchemeSpec::Nm {
                    n: num("nm", params[0])?,
                    m: num("nm", params[1])?,
                })
            }
            "block" => {
                arity("block", 2)?;
                Ok(SchemeSpec::Block {
                    rate: num("block", params[0])?,
                    block: num("block", params[1])?,
                })
            }
            "crs" => {
                arity("crs", 1)?;
                Ok(SchemeSpec::Crs {
                    keep: num("crs", params[0])?,
                })
            }
            "row_crs" => {
                arity("row_crs", 3)?;
                Ok(SchemeSpec::RowCrs {
                    rate: num("row_crs", params[0])?,
                    max_dp: num("row_crs", params[1])?,
                    keep: num("row_crs", params[2])?,
                })
            }
            "transformer" => {
                arity("transformer", 2)?;
                Ok(SchemeSpec::Transformer {
                    rate: num("transformer", params[0])?,
                    head_dim: num("transformer", params[1])?,
                })
            }
            other => Err(SchemeSpecError::UnknownFamily(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One spec per family, all valid — the round-trip corpus.
    fn corpus() -> Vec<SchemeSpec> {
        vec![
            SchemeSpec::None,
            SchemeSpec::Bernoulli { rate: 0.5 },
            SchemeSpec::Divergent { rate: 0.3 },
            SchemeSpec::Row {
                rate: 0.5,
                max_dp: 8,
            },
            SchemeSpec::Tile {
                rate: 0.5,
                max_dp: 8,
                tile: 32,
            },
            SchemeSpec::Nm { n: 2, m: 4 },
            SchemeSpec::Block {
                rate: 0.5,
                block: 16,
            },
            SchemeSpec::Crs { keep: 0.5 },
            SchemeSpec::RowCrs {
                rate: 0.5,
                max_dp: 8,
                keep: 0.75,
            },
            SchemeSpec::Transformer {
                rate: 0.25,
                head_dim: 64,
            },
        ]
    }

    #[test]
    fn display_then_parse_round_trips_every_family() {
        for spec in corpus() {
            let text = spec.to_string();
            let parsed: SchemeSpec = text.parse().expect("printed spec must parse");
            assert_eq!(parsed, spec, "round trip through {text:?}");
        }
    }

    #[test]
    fn every_corpus_spec_validates_and_builds() {
        for spec in corpus() {
            spec.validate().expect("corpus specs are valid");
            let built = spec.build().expect("corpus specs must build");
            if let SchemeSpec::None = spec {
                assert_eq!(built.label(), "none");
            }
        }
    }

    #[test]
    fn canonical_strings_parse() {
        for (text, spec) in [
            (
                "row:0.5:8",
                SchemeSpec::Row {
                    rate: 0.5,
                    max_dp: 8,
                },
            ),
            ("nm:2:4", SchemeSpec::Nm { n: 2, m: 4 }),
            ("crs:0.5", SchemeSpec::Crs { keep: 0.5 }),
            (
                "transformer:0.25:64",
                SchemeSpec::Transformer {
                    rate: 0.25,
                    head_dim: 64,
                },
            ),
        ] {
            assert_eq!(text.parse::<SchemeSpec>().unwrap(), spec);
        }
    }

    #[test]
    fn parse_errors_are_typed() {
        assert_eq!(
            "gaussian:0.5".parse::<SchemeSpec>(),
            Err(SchemeSpecError::UnknownFamily("gaussian".into()))
        );
        assert_eq!(
            "row:0.5".parse::<SchemeSpec>(),
            Err(SchemeSpecError::WrongArity {
                family: "row",
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            "crs:lots".parse::<SchemeSpec>(),
            Err(SchemeSpecError::BadNumber {
                family: "crs",
                value: "lots".into()
            })
        );
        assert!("gaussian:0.5"
            .parse::<SchemeSpec>()
            .unwrap_err()
            .to_string()
            .contains("gaussian"));
    }

    /// One rule decides: `build` accepts exactly the specs `validate`
    /// accepts, across rates, periods, tiles, N:M pairs, keep fractions and
    /// widths (a `max_dp` of 1 used to build a scheme that never drops).
    #[test]
    fn build_accepts_exactly_what_validate_accepts() {
        let mut specs = vec![SchemeSpec::None];
        for rate in [0.0, 0.5, 1.0] {
            specs.push(SchemeSpec::Bernoulli { rate });
            specs.push(SchemeSpec::Divergent { rate });
            for width in [0, 16] {
                specs.push(SchemeSpec::Block { rate, block: width });
                specs.push(SchemeSpec::Transformer {
                    rate,
                    head_dim: width,
                });
            }
            for max_dp in [0, 1, 2, 8, MAX_DP, MAX_DP + 1, usize::MAX] {
                specs.push(SchemeSpec::Row { rate, max_dp });
                for tile in [0, 32] {
                    specs.push(SchemeSpec::Tile { rate, max_dp, tile });
                }
                for keep in [0.0, 0.5, 1.0] {
                    specs.push(SchemeSpec::RowCrs { rate, max_dp, keep });
                }
            }
        }
        for (n, m) in [(0, 4), (2, 4), (4, 4), (5, 4), (1, 0)] {
            specs.push(SchemeSpec::Nm { n, m });
        }
        for keep in [0.0, 0.5, 1.0, 1.5] {
            specs.push(SchemeSpec::Crs { keep });
        }
        for spec in specs {
            assert_eq!(
                spec.build().is_ok(),
                spec.validate().is_ok(),
                "{spec}: build and validate disagree"
            );
        }
    }

    #[test]
    fn validate_rejects_out_of_range_parameters() {
        assert!(SchemeSpec::Bernoulli { rate: 1.5 }.validate().is_err());
        assert!(SchemeSpec::Row {
            rate: 0.5,
            max_dp: 1
        }
        .validate()
        .is_err());
        assert!(SchemeSpec::Nm { n: 5, m: 4 }.validate().is_err());
        assert!(SchemeSpec::Crs { keep: 0.0 }.validate().is_err());
        assert!(SchemeSpec::Block {
            rate: 0.5,
            block: 0
        }
        .validate()
        .is_err());
        assert!(SchemeSpec::Transformer {
            rate: 0.25,
            head_dim: 0
        }
        .validate()
        .is_err());
        assert!(SchemeSpec::Transformer {
            rate: 1.5,
            head_dim: 64
        }
        .validate()
        .is_err());
    }
}

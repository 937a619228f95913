//! Seeded sampling distributions for workload synthesis.
//!
//! The open-loop generators in [`crate::workload`] draw interarrival
//! gaps, runtimes, and widths from these distributions. Everything is
//! inverse-CDF (or Box–Muller, for the normal behind the lognormal)
//! over a seeded [`StdRng`], so a `(Dist, seed)` pair is a complete,
//! reproducible description of a sample stream. Each variant documents
//! how many uniform draws one sample consumes; the count is fixed per
//! variant so streams stay aligned under parameter sweeps.

use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use std::fmt;
use xcbc_sim::Fnv64;

/// A continuous distribution over positive reals (seconds, widths).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Always `value`. Consumes no draws.
    Constant { value: f64 },
    /// Uniform on `[lo, hi)`. One draw.
    Uniform { lo: f64, hi: f64 },
    /// Exponential with the given mean — Poisson arrivals. One draw.
    Exponential { mean: f64 },
    /// Pareto with shape `alpha`, scale (minimum) `xmin` — the classic
    /// heavy tail; mean is infinite for `alpha <= 1`. One draw.
    Pareto { alpha: f64, xmin: f64 },
    /// Lognormal: `exp(mu + sigma·Z)` for standard normal `Z`. Two
    /// draws (Box–Muller, cosine branch only).
    LogNormal { mu: f64, sigma: f64 },
    /// Log-uniform on `[lo, hi]` — equal mass per decade. One draw.
    LogUniform { lo: f64, hi: f64 },
}

impl Dist {
    /// Lognormal parameterized by its *arithmetic* mean and coefficient
    /// of variation — the form workload papers quote.
    pub fn lognormal_mean_cv(mean: f64, cv: f64) -> Dist {
        let sigma2 = (1.0 + cv * cv).ln();
        Dist::LogNormal {
            mu: mean.ln() - sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        }
    }

    /// Draw one sample.
    pub fn sample(&self, rng: &mut StdRng) -> f64 {
        match *self {
            Dist::Constant { value } => value,
            Dist::Uniform { lo, hi } => {
                let u: f64 = rng.gen_range(0.0..1.0);
                lo + (hi - lo) * u
            }
            Dist::Exponential { mean } => {
                // u in (0,1]: avoid ln(0)
                let u: f64 = 1.0 - rng.gen_range(0.0..1.0);
                -mean * u.ln()
            }
            Dist::Pareto { alpha, xmin } => {
                let u: f64 = 1.0 - rng.gen_range(0.0..1.0);
                xmin * u.powf(-1.0 / alpha)
            }
            Dist::LogNormal { mu, sigma } => {
                let u1: f64 = 1.0 - rng.gen_range(0.0..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (mu + sigma * z).exp()
            }
            Dist::LogUniform { lo, hi } => {
                let u: f64 = rng.gen_range(0.0..1.0);
                lo * (hi / lo).powf(u)
            }
        }
    }

    /// Theoretical mean (`f64::INFINITY` where it diverges).
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Constant { value } => value,
            Dist::Uniform { lo, hi } => (lo + hi) / 2.0,
            Dist::Exponential { mean } => mean,
            Dist::Pareto { alpha, xmin } => {
                if alpha > 1.0 {
                    alpha * xmin / (alpha - 1.0)
                } else {
                    f64::INFINITY
                }
            }
            Dist::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            Dist::LogUniform { lo, hi } => {
                if (hi - lo).abs() < f64::EPSILON {
                    lo
                } else {
                    (hi - lo) / (hi / lo).ln()
                }
            }
        }
    }

    /// Theoretical coefficient of variation, std/mean
    /// (`f64::INFINITY` where the variance diverges).
    pub fn cv(&self) -> f64 {
        match *self {
            Dist::Constant { .. } => 0.0,
            Dist::Uniform { lo, hi } => {
                let m = (lo + hi) / 2.0;
                if m == 0.0 {
                    0.0
                } else {
                    (hi - lo) / (12.0f64.sqrt() * m)
                }
            }
            Dist::Exponential { .. } => 1.0,
            Dist::Pareto { alpha, .. } => {
                if alpha > 2.0 {
                    1.0 / (alpha * (alpha - 2.0)).sqrt()
                } else {
                    f64::INFINITY
                }
            }
            Dist::LogNormal { sigma, .. } => ((sigma * sigma).exp() - 1.0).sqrt(),
            Dist::LogUniform { lo, hi } => {
                let m = self.mean();
                if (hi - lo).abs() < f64::EPSILON || m == 0.0 {
                    0.0
                } else {
                    let m2 = (hi * hi - lo * lo) / (2.0 * (hi / lo).ln());
                    (m2 / (m * m) - 1.0).max(0.0).sqrt()
                }
            }
        }
    }

    /// Parse the compact text form the CLI grids use:
    /// `const:V` (or a bare number), `uniform:LO:HI`, `exp:MEAN`,
    /// `pareto:ALPHA:XMIN`, `lognorm:MU:SIGMA`, `loguniform:LO:HI`.
    pub fn parse(s: &str) -> Result<Dist, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let num = |p: &str| -> Result<f64, String> {
            p.trim()
                .parse::<f64>()
                .map_err(|_| format!("bad number {p:?} in distribution {s:?}"))
        };
        let arity = |want: usize| -> Result<(), String> {
            if parts.len() == want + 1 {
                Ok(())
            } else {
                Err(format!(
                    "distribution {:?} takes {} parameter(s), got {}",
                    parts[0],
                    want,
                    parts.len() - 1
                ))
            }
        };
        let dist = match parts[0].trim() {
            "const" => {
                arity(1)?;
                Dist::Constant {
                    value: num(parts[1])?,
                }
            }
            "uniform" => {
                arity(2)?;
                Dist::Uniform {
                    lo: num(parts[1])?,
                    hi: num(parts[2])?,
                }
            }
            "exp" => {
                arity(1)?;
                Dist::Exponential {
                    mean: num(parts[1])?,
                }
            }
            "pareto" => {
                arity(2)?;
                Dist::Pareto {
                    alpha: num(parts[1])?,
                    xmin: num(parts[2])?,
                }
            }
            "lognorm" => {
                arity(2)?;
                Dist::LogNormal {
                    mu: num(parts[1])?,
                    sigma: num(parts[2])?,
                }
            }
            "loguniform" => {
                arity(2)?;
                Dist::LogUniform {
                    lo: num(parts[1])?,
                    hi: num(parts[2])?,
                }
            }
            other => {
                // bare number → constant
                if parts.len() == 1 {
                    if let Ok(v) = other.parse::<f64>() {
                        return Ok(Dist::Constant { value: v });
                    }
                }
                return Err(format!(
                    "unknown distribution {other:?} (want const/uniform/exp/pareto/lognorm/loguniform)"
                ));
            }
        };
        dist.validate()?;
        Ok(dist)
    }

    /// Reject parameterizations that cannot produce a sane positive
    /// stream (used by [`Dist::parse`] and spec normalization).
    pub fn validate(&self) -> Result<(), String> {
        let bad = |msg: String| Err(msg);
        match *self {
            Dist::Constant { value } => {
                if !value.is_finite() || value < 0.0 {
                    return bad(format!("const value must be finite and >= 0, got {value}"));
                }
            }
            Dist::Uniform { lo, hi } | Dist::LogUniform { lo, hi } => {
                if !(lo.is_finite() && hi.is_finite()) || lo > hi {
                    return bad(format!(
                        "range must be finite with lo <= hi, got {lo}..{hi}"
                    ));
                }
                if matches!(self, Dist::LogUniform { .. }) && lo <= 0.0 {
                    return bad(format!("loguniform needs lo > 0, got {lo}"));
                }
            }
            Dist::Exponential { mean } => {
                if !mean.is_finite() || mean <= 0.0 {
                    return bad(format!("exp mean must be > 0, got {mean}"));
                }
            }
            Dist::Pareto { alpha, xmin } => {
                if !(alpha.is_finite() && xmin.is_finite()) || alpha <= 0.0 || xmin <= 0.0 {
                    return bad(format!(
                        "pareto needs alpha > 0 and xmin > 0, got alpha={alpha} xmin={xmin}"
                    ));
                }
            }
            Dist::LogNormal { mu, sigma } => {
                if !(mu.is_finite() && sigma.is_finite()) || sigma < 0.0 {
                    return bad(format!(
                        "lognorm needs finite mu and sigma >= 0, got mu={mu} sigma={sigma}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Feed this distribution into a digest (variant tag + parameter
    /// bits), for [`crate::workload::WorkloadSpec::digest`].
    pub fn write_digest(&self, h: &mut Fnv64) {
        match *self {
            Dist::Constant { value } => h.write_u64(1).write_f64(value),
            Dist::Uniform { lo, hi } => h.write_u64(2).write_f64(lo).write_f64(hi),
            Dist::Exponential { mean } => h.write_u64(3).write_f64(mean),
            Dist::Pareto { alpha, xmin } => h.write_u64(4).write_f64(alpha).write_f64(xmin),
            Dist::LogNormal { mu, sigma } => h.write_u64(5).write_f64(mu).write_f64(sigma),
            Dist::LogUniform { lo, hi } => h.write_u64(6).write_f64(lo).write_f64(hi),
        };
    }
}

impl fmt::Display for Dist {
    /// The canonical text form; `Dist::parse` round-trips it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Dist::Constant { value } => write!(f, "const:{value}"),
            Dist::Uniform { lo, hi } => write!(f, "uniform:{lo}:{hi}"),
            Dist::Exponential { mean } => write!(f, "exp:{mean}"),
            Dist::Pareto { alpha, xmin } => write!(f, "pareto:{alpha}:{xmin}"),
            Dist::LogNormal { mu, sigma } => write!(f, "lognorm:{mu}:{sigma}"),
            Dist::LogUniform { lo, hi } => write!(f, "loguniform:{lo}:{hi}"),
        }
    }
}

/// Sample an index from discrete, non-negative `weights` (a categorical
/// draw): index `i` is chosen with probability `weights[i] / Σ weights`.
/// Zero-weight entries are never chosen; if every weight is zero (or
/// the slice is empty) the draw falls back to index 0. One RNG word is
/// consumed per call, so callers interleaving this with other draws
/// stay stream-stable. The multi-tenant service uses it for skewed
/// tenant and operation mixes over [`Dist`]-sampled arrival gaps.
pub fn sample_weighted(rng: &mut StdRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
    let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    if total <= 0.0 {
        return 0;
    }
    let mut point = unit * total;
    for (i, &w) in weights.iter().enumerate() {
        if !(w.is_finite() && w > 0.0) {
            continue;
        }
        if point < w {
            return i;
        }
        point -= w;
    }
    // float round-off on the last positive weight
    weights
        .iter()
        .rposition(|w| w.is_finite() && *w > 0.0)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn samples(d: Dist, seed: u64, n: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn weighted_draws_respect_weights() {
        let mut rng = StdRng::seed_from_u64(7);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..4000 {
            counts[sample_weighted(&mut rng, &weights)] += 1;
        }
        assert_eq!(counts[1], 0, "zero weight is never drawn");
        assert!(counts[2] > counts[0] * 2, "3:1 skew shows up: {counts:?}");
        assert_eq!(counts[0] + counts[2], 4000);
    }

    #[test]
    fn weighted_draw_degenerate_cases() {
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(sample_weighted(&mut rng, &[]), 0);
        assert_eq!(sample_weighted(&mut rng, &[0.0, 0.0]), 0);
        assert_eq!(sample_weighted(&mut rng, &[0.0, 5.0]), 1);
        // deterministic for a fixed seed
        let a: Vec<usize> = {
            let mut r = StdRng::seed_from_u64(42);
            (0..32)
                .map(|_| sample_weighted(&mut r, &[2.0, 1.0, 1.0]))
                .collect()
        };
        let b: Vec<usize> = {
            let mut r = StdRng::seed_from_u64(42);
            (0..32)
                .map(|_| sample_weighted(&mut r, &[2.0, 1.0, 1.0]))
                .collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn seeded_sampling_is_deterministic() {
        for d in [
            Dist::Exponential { mean: 600.0 },
            Dist::Pareto {
                alpha: 2.5,
                xmin: 60.0,
            },
            Dist::LogNormal {
                mu: 5.5,
                sigma: 1.2,
            },
            Dist::LogUniform {
                lo: 30.0,
                hi: 1800.0,
            },
            Dist::Uniform { lo: 1.0, hi: 9.0 },
        ] {
            assert_eq!(samples(d, 42, 64), samples(d, 42, 64), "{d}");
            assert_ne!(samples(d, 42, 64), samples(d, 43, 64), "{d}");
        }
    }

    #[test]
    fn samples_respect_supports() {
        for x in samples(
            Dist::Pareto {
                alpha: 1.5,
                xmin: 60.0,
            },
            7,
            1000,
        ) {
            assert!(x >= 60.0);
        }
        for x in samples(
            Dist::LogUniform {
                lo: 30.0,
                hi: 1800.0,
            },
            7,
            1000,
        ) {
            assert!((30.0..=1800.0).contains(&x));
        }
        for x in samples(Dist::Exponential { mean: 10.0 }, 7, 1000) {
            assert!(x >= 0.0 && x.is_finite());
        }
    }

    #[test]
    fn parse_round_trips_display() {
        for s in [
            "const:42",
            "uniform:1:9",
            "exp:600",
            "pareto:1.5:60",
            "lognorm:5.5:1.2",
            "loguniform:30:1800",
        ] {
            let d = Dist::parse(s).unwrap();
            assert_eq!(Dist::parse(&d.to_string()).unwrap(), d, "{s}");
        }
        assert_eq!(Dist::parse("120").unwrap(), Dist::Constant { value: 120.0 });
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in [
            "exp",
            "exp:0",
            "exp:-3",
            "exp:1:2",
            "pareto:0:60",
            "loguniform:0:10",
            "uniform:9:1",
            "weibull:1:2",
            "lognorm:nope:1",
        ] {
            assert!(Dist::parse(s).is_err(), "{s:?} should not parse");
        }
    }

    #[test]
    fn theoretical_moments() {
        let p = Dist::Pareto {
            alpha: 3.0,
            xmin: 2.0,
        };
        assert!((p.mean() - 3.0).abs() < 1e-12);
        assert!((p.cv() - 1.0 / 3.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(
            Dist::Pareto {
                alpha: 1.0,
                xmin: 2.0
            }
            .mean(),
            f64::INFINITY
        );
        let ln = Dist::lognormal_mean_cv(300.0, 2.0);
        assert!((ln.mean() - 300.0).abs() < 1e-9);
        assert!((ln.cv() - 2.0).abs() < 1e-9);
        assert_eq!(Dist::Exponential { mean: 5.0 }.cv(), 1.0);
    }

    #[test]
    fn digest_distinguishes_variants_and_params() {
        let digest = |d: Dist| {
            let mut h = Fnv64::new();
            d.write_digest(&mut h);
            h.finish()
        };
        let a = digest(Dist::Exponential { mean: 600.0 });
        let b = digest(Dist::Exponential { mean: 601.0 });
        let c = digest(Dist::Constant { value: 600.0 });
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, digest(Dist::Exponential { mean: 600.0 }));
    }
}

//! Parameter tuning: the NB/N sweep every HPL deployment starts with.

use crate::hpl::{run_hpl, HplConfig, HplResult};

/// One point of a tuning sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningPoint {
    /// Block size tried.
    pub nb: usize,
    /// Rate achieved at this block size.
    pub gflops: f64,
    /// Residual check outcome.
    pub passed: bool,
}

/// Run `n` at each block size and report the curve plus the winner.
pub fn sweep_block_size(
    n: usize,
    nbs: &[usize],
    threads: usize,
    seed: u64,
) -> (Vec<TuningPoint>, usize) {
    assert!(!nbs.is_empty());
    let mut points = Vec::with_capacity(nbs.len());
    for &nb in nbs {
        let r: HplResult = run_hpl(&HplConfig {
            n,
            nb,
            threads,
            seed,
        });
        points.push(TuningPoint {
            nb,
            gflops: r.gflops,
            passed: r.passed,
        });
    }
    let best = points
        .iter()
        .max_by(|a, b| a.gflops.total_cmp(&b.gflops))
        .expect("non-empty")
        .nb;
    (points, best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_returns_point_per_nb_all_passing() {
        let (points, best) = sweep_block_size(96, &[8, 16, 32], 1, 1);
        assert_eq!(points.len(), 3);
        assert!(points.iter().all(|p| p.passed));
        assert!([8, 16, 32].contains(&best));
    }

    #[test]
    fn best_is_argmax() {
        let (points, best) = sweep_block_size(128, &[4, 32], 1, 2);
        let max = points
            .iter()
            .max_by(|a, b| a.gflops.total_cmp(&b.gflops))
            .unwrap();
        assert_eq!(best, max.nb);
    }

    #[test]
    #[should_panic]
    fn empty_sweep_panics() {
        sweep_block_size(64, &[], 1, 1);
    }
}

//! STREAM-style memory bandwidth kernels and a ping-pong latency model.
//!
//! HPL alone doesn't characterize a deskside cluster; the curriculum's
//! "demonstrate HPC capabilities" needs the other two classic
//! microbenchmarks. The STREAM kernels are *real* (they measure this
//! host); the ping-pong model is analytic over the cluster's
//! `NetworkSpec`-style parameters, matching the GbE numbers the
//! efficiency model in [`crate::model`] assumes.

use std::time::Instant;
use xcbc_sim::pool;

/// Which STREAM kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKernel {
    /// `c[i] = a[i]` — 2 words/iteration.
    Copy,
    /// `b[i] = s*c[i]` — 2 words.
    Scale,
    /// `c[i] = a[i] + b[i]` — 3 words.
    Add,
    /// `a[i] = b[i] + s*c[i]` — 3 words.
    Triad,
}

impl StreamKernel {
    /// Words moved per element (STREAM's counting convention).
    pub fn words_per_element(self) -> u64 {
        match self {
            StreamKernel::Copy | StreamKernel::Scale => 2,
            StreamKernel::Add | StreamKernel::Triad => 3,
        }
    }
}

/// One kernel measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamResult {
    /// Which kernel ran.
    pub kernel: StreamKernel,
    /// Array length in doubles.
    pub n: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Best (minimum) time across repetitions.
    pub seconds: f64,
    /// Achieved bandwidth per STREAM's byte-counting convention.
    pub bandwidth_gb_s: f64,
    /// Checksum so the work cannot be optimized away and is verifiable.
    pub checksum: f64,
}

/// Run one STREAM kernel over `n` doubles with `threads` workers,
/// repeated `reps` times (best time reported, as STREAM does).
pub fn run_stream(kernel: StreamKernel, n: usize, threads: usize, reps: usize) -> StreamResult {
    assert!(n > 0 && reps > 0 && threads > 0);
    let mut a = vec![1.0f64; n];
    let mut b = vec![2.0f64; n];
    let mut c = vec![0.0f64; n];

    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        stream_pass(kernel, &mut a, &mut b, &mut c, threads);
        best = best.min(start.elapsed().as_secs_f64());
    }

    let bytes = kernel.words_per_element() * 8 * n as u64;
    StreamResult {
        kernel,
        n,
        threads,
        seconds: best,
        bandwidth_gb_s: bytes as f64 / best / 1e9,
        checksum: a[n / 2] + b[n / 2] + c[n / 2],
    }
}

/// One pass of `kernel` over the arrays, each of `threads` workers
/// taking one contiguous chunk of every array.
fn stream_pass(kernel: StreamKernel, a: &mut [f64], b: &mut [f64], c: &mut [f64], threads: usize) {
    const SCALAR: f64 = 3.0;
    let chunk = a.len().div_ceil(threads);
    let chunks = a
        .chunks_mut(chunk)
        .zip(b.chunks_mut(chunk))
        .zip(c.chunks_mut(chunk));
    pool::map(threads, chunks, |((a, b), c)| match kernel {
        StreamKernel::Copy => c.copy_from_slice(a),
        StreamKernel::Scale => b.iter_mut().zip(&*c).for_each(|(b, c)| *b = SCALAR * c),
        StreamKernel::Add => c
            .iter_mut()
            .zip(a.iter().zip(&*b))
            .for_each(|(c, (a, b))| *c = a + b),
        StreamKernel::Triad => a
            .iter_mut()
            .zip(b.iter().zip(&*c))
            .for_each(|(a, (b, c))| *a = b + SCALAR * c),
    });
}

/// Analytic MPI ping-pong: time to echo a message of `bytes` over a link
/// with `latency_us` one-way latency and `bandwidth_gbps` line rate.
pub fn pingpong_seconds(bytes: u64, latency_us: f64, bandwidth_gbps: f64) -> f64 {
    2.0 * (latency_us / 1e6 + bytes as f64 * 8.0 / (bandwidth_gbps * 1e9))
}

/// Effective half-round-trip bandwidth at a message size (the classic
/// ramp: latency-bound small messages, line-rate large ones).
pub fn pingpong_bandwidth_mb_s(bytes: u64, latency_us: f64, bandwidth_gbps: f64) -> f64 {
    let t = pingpong_seconds(bytes, latency_us, bandwidth_gbps) / 2.0;
    bytes as f64 / t / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_compute_correct_values() {
        // run all four in STREAM order and verify the final arrays
        let n = 1000;
        run_stream(StreamKernel::Copy, n, 1, 1);
        // a fresh run of Triad with known inputs via checksum path:
        let r = run_stream(StreamKernel::Add, n, 2, 2);
        // after Copy(c=a) inside run_stream's own init: a=1,b=2 → add c=3
        assert_eq!(r.checksum, 1.0 + 2.0 + 3.0);
        assert!(r.bandwidth_gb_s > 0.0);
        assert!(r.seconds > 0.0);
    }

    #[test]
    fn triad_checksum() {
        let r = run_stream(StreamKernel::Triad, 512, 1, 1);
        // triad: a = b + 3*c with initial b=2, c=0 → a=2
        assert_eq!(r.checksum, 2.0 + 2.0 + 0.0);
        assert_eq!(r.kernel.words_per_element(), 3);
    }

    #[test]
    fn threads_split_the_arrays_without_changing_them() {
        let kernels = [
            StreamKernel::Copy,
            StreamKernel::Scale,
            StreamKernel::Add,
            StreamKernel::Triad,
        ];
        let n = 1003; // uneven chunks at 4 threads
        let arrays = |threads| {
            let mut a: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
            let mut b: Vec<f64> = (0..n).map(|i| (i % 17) as f64).collect();
            let mut c: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
            for kernel in kernels {
                stream_pass(kernel, &mut a, &mut b, &mut c, threads);
            }
            (a, b, c)
        };
        assert_eq!(arrays(1), arrays(4));
        for kernel in kernels {
            let one = run_stream(kernel, n, 1, 2);
            let four = run_stream(kernel, n, 4, 2);
            assert_eq!(one.checksum, four.checksum, "{kernel:?}");
            assert_eq!(four.threads, 4);
        }
    }

    #[test]
    fn words_per_element_convention() {
        assert_eq!(StreamKernel::Copy.words_per_element(), 2);
        assert_eq!(StreamKernel::Scale.words_per_element(), 2);
        assert_eq!(StreamKernel::Add.words_per_element(), 3);
        assert_eq!(StreamKernel::Triad.words_per_element(), 3);
    }

    #[test]
    fn pingpong_latency_dominates_small_messages() {
        // GbE: 50us latency, 1 Gbps
        let tiny = pingpong_seconds(8, 50.0, 1.0);
        assert!((tiny - 2.0 * (50e-6 + 64.0 / 1e9)).abs() < 1e-12);
        // 1 MB is bandwidth-dominated
        let big_bw = pingpong_bandwidth_mb_s(1 << 20, 50.0, 1.0);
        assert!(big_bw > 80.0 && big_bw < 125.0, "{big_bw} MB/s on GbE");
        let small_bw = pingpong_bandwidth_mb_s(8, 50.0, 1.0);
        assert!(small_bw < 1.0, "latency-bound: {small_bw} MB/s");
    }

    #[test]
    fn pingpong_monotone_in_size() {
        let mut last = 0.0;
        for p in 0..20 {
            let t = pingpong_seconds(1 << p, 50.0, 1.0);
            assert!(t > last);
            last = t;
        }
    }

    #[test]
    #[should_panic]
    fn zero_n_rejected() {
        run_stream(StreamKernel::Copy, 0, 1, 1);
    }
}

//! Host-speed calibration. The benchmark shares a virtual machine's CPUs
//! with other tenants, and the speed they leave it drifts by a third and
//! more over minutes, slowing CPU time with wall time. A calibration pass
//! is a fixed amount of work written here with the standard library only,
//! so no change to the program moves it; timed between the iterations, it
//! tells how fast the host ran meanwhile. Iteration and set-up times are
//! reported as they would read on a reference host, where one pass takes
//! [`REFERENCE_PASS_NS`].

use crate::host;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// A calibration pass's wall and CPU time on the reference host, in ns.
/// The value is a definition, fixed once: close to a pass's time on a
/// 2-vCPU Intel Xeon virtual machine in its faster phases.
pub const REFERENCE_PASS_NS: f64 = 40e6;

/// Values sorted per pass (1 MiB of `u64`).
const SORTED: usize = 1 << 17;
/// Entries of the ordered map searched per pass.
const TREE_ENTRIES: usize = 1 << 16;
/// Ordered-map searches per pass.
const SEARCHES: usize = 200_000;

/// The calibration inputs, built once: the values to sort and an
/// ordered map of some of them. Sorting and searching an ordered map,
/// branchy work over a few MiB, tracked the engines' own slowdowns more
/// closely than pure arithmetic, a hash map, a pointer chase through
/// memory or string building did.
pub struct Calibration {
    values: Vec<u64>,
    tree: BTreeMap<u64, u64>,
}

/// Wall and CPU time of one calibration pass, in ns.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub wall_ns: u64,
    pub cpu_ns: u64,
}

impl Calibration {
    pub fn new() -> Calibration {
        let mut state = 0x0ca1_1b8a_7e5e_ed00_u64;
        let values: Vec<u64> = (0..SORTED).map(|_| crate::splitmix(&mut state)).collect();
        let tree = values[..TREE_ENTRIES]
            .iter()
            .map(|v| (*v, v >> 5))
            .collect();
        Calibration { values, tree }
    }

    /// The fixed work: sort a copy of the values twice over, then look up
    /// the next entry of the map after each of a fixed run of keys. The
    /// checksum keeps the compiler from dropping any of it.
    pub fn work(&self) -> u64 {
        let mut sum = 0u64;
        for _ in 0..2 {
            let mut sorted = self.values.clone();
            sorted.sort_unstable();
            sum ^= sorted[SORTED / 3];
        }
        let mut state = 0x5eed_u64;
        for _ in 0..SEARCHES {
            let key = crate::splitmix(&mut state);
            if let Some((k, v)) = self.tree.range(key..).next() {
                sum = sum.wrapping_add(k ^ v);
            }
        }
        sum
    }

    /// Time one pass.
    pub fn pass(&self) -> Pass {
        let cpu_before = host::process_cpu_ns();
        let start = Instant::now();
        black_box(self.work());
        Pass {
            wall_ns: start.elapsed().as_nanos() as u64,
            cpu_ns: host::process_cpu_ns().saturating_sub(cpu_before),
        }
    }
}

/// The host's speed over a run: the median of its calibration passes.
#[derive(Debug, Clone, Copy)]
pub struct HostSpeed {
    pub wall_ns: f64,
    pub cpu_ns: f64,
}

impl HostSpeed {
    pub fn of(passes: &[Pass]) -> HostSpeed {
        let wall: Vec<f64> = passes.iter().map(|p| p.wall_ns as f64).collect();
        let cpu: Vec<f64> = passes.iter().map(|p| p.cpu_ns as f64).collect();
        HostSpeed {
            wall_ns: crate::median(&wall),
            cpu_ns: crate::median(&cpu),
        }
    }

    /// `ns` of wall time measured on this host, in reference-host ms.
    pub fn wall_ms(&self, ns: f64) -> f64 {
        ns * REFERENCE_PASS_NS / self.wall_ns / 1e6
    }

    /// `ns` of CPU time measured on this host, in reference-host ms.
    pub fn cpu_ms(&self, ns: f64) -> f64 {
        ns * REFERENCE_PASS_NS / self.cpu_ns / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_does_the_same_work_every_time() {
        let cal = Calibration::new();
        assert_eq!(cal.work(), cal.work());
        let speed = HostSpeed::of(&[cal.pass(), cal.pass(), cal.pass()]);
        assert!(speed.wall_ns > 0.0 && speed.cpu_ns > 0.0, "{speed:?}");
        // a pass's own time reads as the reference time
        assert!((speed.wall_ms(speed.wall_ns) - REFERENCE_PASS_NS / 1e6).abs() < 1e-9);
    }
}

//! The PXE boot chain — how a compute node actually reinstalls.
//!
//! `insert-ethers` only works because every Rocks compute node network-
//! boots: DHCP → TFTP (pxelinux) → installer kernel → kickstart fetch →
//! anaconda → local boot. This module walks that state machine with
//! per-stage failure injection, recording the `cluster.boot` spans the
//! install workflow accounts and the diagnostics a training lab teaches.

use xcbc_sim::{SpanRecorder, TraceEvent};

/// Stages of the chain, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PxeStage {
    Dhcp,
    Tftp,
    KernelBoot,
    KickstartFetch,
    Anaconda,
    LocalBoot,
}

impl PxeStage {
    pub const ALL: [PxeStage; 6] = [
        PxeStage::Dhcp,
        PxeStage::Tftp,
        PxeStage::KernelBoot,
        PxeStage::KickstartFetch,
        PxeStage::Anaconda,
        PxeStage::LocalBoot,
    ];

    /// Nominal duration of the stage, seconds (anaconda's duration is
    /// payload-dependent and passed separately).
    pub fn nominal_seconds(self) -> f64 {
        match self {
            PxeStage::Dhcp => 5.0,
            PxeStage::Tftp => 10.0,
            PxeStage::KernelBoot => 30.0,
            PxeStage::KickstartFetch => 5.0,
            PxeStage::Anaconda => 0.0, // payload-driven
            PxeStage::LocalBoot => 60.0,
        }
    }

    /// The diagnostic an admin sees when this stage fails.
    pub fn failure_symptom(self) -> &'static str {
        match self {
            PxeStage::Dhcp => "node sits at 'PXE-E51: No DHCP or proxyDHCP offers received'",
            PxeStage::Tftp => "PXE-E32: TFTP open timeout",
            PxeStage::KernelBoot => "installer kernel panic / wrong console",
            PxeStage::KickstartFetch => "anaconda asks for install source interactively",
            PxeStage::Anaconda => "package installation error mid-install",
            PxeStage::LocalBoot => "node loops back into the installer",
        }
    }
}

/// Outcome of a boot attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct PxeOutcome {
    pub hostname: String,
    /// Stage reached; `None` in `failed_at` means full success.
    pub failed_at: Option<PxeStage>,
    /// One `cluster.boot` span per stage walked, the failed one last.
    pub trace: Vec<TraceEvent>,
}

impl PxeOutcome {
    pub fn succeeded(&self) -> bool {
        self.failed_at.is_none()
    }
}

/// Walk the chain for one node. `payload_bytes` sizes the anaconda
/// stage (at 20 MB/s, as the install workflow assumes); `fails_at`
/// injects a failure at one stage.
pub fn boot_node(hostname: &str, payload_bytes: u64, fails_at: Option<PxeStage>) -> PxeOutcome {
    let mut rec = SpanRecorder::new("cluster.boot");
    for stage in PxeStage::ALL {
        let secs = if stage == PxeStage::Anaconda {
            payload_bytes as f64 / (20.0 * 1024.0 * 1024.0)
        } else {
            stage.nominal_seconds()
        };
        if fails_at == Some(stage) {
            // a failed stage burns its timeout (3x nominal, min 30 s)
            rec.record(
                format!(
                    "{hostname}: {:?} FAILED — {}",
                    stage,
                    stage.failure_symptom()
                ),
                (secs * 3.0).max(30.0),
            );
            return PxeOutcome {
                hostname: hostname.to_string(),
                failed_at: Some(stage),
                trace: rec.into_events(),
            };
        }
        rec.record(format!("{hostname}: {stage:?}"), secs);
    }
    PxeOutcome {
        hostname: hostname.to_string(),
        failed_at: None,
        trace: rec.into_events(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcbc_sim::SimDuration;

    #[test]
    fn clean_boot_walks_all_stages() {
        let out = boot_node("compute-0-0", 500 << 20, None);
        assert!(out.succeeded());
        assert_eq!(out.trace.len(), 6);
        // anaconda dominates: 500 MB / 20 MBps = 25 s plus fixed stages
        assert!(
            (xcbc_sim::span_end(&out.trace).as_secs_f64()
                - (5.0 + 10.0 + 30.0 + 5.0 + 25.0 + 60.0))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn failure_stops_the_chain() {
        let out = boot_node("compute-0-1", 500 << 20, Some(PxeStage::Dhcp));
        assert!(!out.succeeded());
        assert_eq!(out.failed_at, Some(PxeStage::Dhcp));
        assert_eq!(out.trace.len(), 1, "nothing after the failed stage");
        assert!(out.trace[0].label.contains("PXE-E51"));
    }

    #[test]
    fn late_failure_includes_earlier_stages() {
        let out = boot_node("compute-0-2", 100 << 20, Some(PxeStage::Anaconda));
        assert_eq!(out.trace.len(), 5, "4 good stages + the failure");
        assert_eq!(out.failed_at, Some(PxeStage::Anaconda));
    }

    #[test]
    fn failed_stage_costs_a_timeout() {
        let ok = boot_node("n", 0, None);
        let failed = boot_node("n", 0, Some(PxeStage::Tftp));
        // failed TFTP costs 30s (3 × 10); success costs 10s at that stage
        let tftp_ok = ok.trace[1].duration();
        let tftp_bad = failed.trace.last().unwrap().duration();
        assert_eq!(tftp_ok, SimDuration::from_secs(10));
        assert_eq!(tftp_bad, SimDuration::from_secs(30));
    }
}

//! Cross-crate determinism properties for the unified trace pipeline:
//! the sim clock, the rocks installer's span recorder, the fault
//! layer's post-mortem moments, and the core deployment report must
//! together replay byte-identically for a fixed fault-plan seed, and
//! `span_end` must end a report where its recorded spans end.

use proptest::prelude::*;
use xcbc::cluster::specs::littlefe_modified;
use xcbc::core::deploy::{deploy_from_scratch_resilient, DeploymentReport};
use xcbc::fault::{FaultPlan, InjectionPoint, InstallCheckpoint};
use xcbc::rocks::ResilienceConfig;
use xcbc::sim::{span_end, SimTime, TraceEvent};

fn run(seed: u64, boot_rate: f64, dhcp_rate: f64) -> Result<DeploymentReport, String> {
    let plan = FaultPlan::new(seed)
        .with_rate(InjectionPoint::NodeBoot, boot_rate)
        .with_rate(InjectionPoint::DhcpDiscover, dhcp_rate);
    deploy_from_scratch_resilient(
        &littlefe_modified(),
        &plan,
        &ResilienceConfig::default(),
        InstallCheckpoint::new(),
    )
    .map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two deployments under the same fault plan yield byte-identical
    /// JSONL event logs and post-mortems.
    #[test]
    fn same_seed_replays_byte_identically(
        seed in 0u64..1000,
        boot_rate in 0.0f64..0.4,
        dhcp_rate in 0.0f64..0.4,
    ) {
        match (run(seed, boot_rate, dhcp_rate), run(seed, boot_rate, dhcp_rate)) {
            (Ok(a), Ok(b)) => {
                prop_assert!(!a.trace.is_empty());
                prop_assert_eq!(a.trace_jsonl(), b.trace_jsonl());
                prop_assert_eq!(
                    a.post_mortem.as_ref().unwrap().render(),
                    b.post_mortem.as_ref().unwrap().render()
                );
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "runs diverged: {a:?} vs {b:?}"),
        }
    }

    /// `span_end` equals the latest end over the recorded events
    /// exactly (both sides live on the same integer-nanosecond clock).
    #[test]
    fn timeline_total_equals_span_derived_total(
        seed in 0u64..1000,
        boot_rate in 0.0f64..0.3,
    ) {
        if let Ok(report) = run(seed, boot_rate, 0.1) {
            let last_end = report
                .trace
                .iter()
                .map(TraceEvent::end)
                .max()
                .unwrap_or(SimTime::ZERO);
            prop_assert_eq!(span_end(&report.trace), last_end);
        }
    }
}

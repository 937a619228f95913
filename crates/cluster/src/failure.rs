//! Hardware failure injection.
//!
//! Table 5's footnote is itself a failure report: "Rmax for LittleFe is
//! estimated due to a hardware failure prior to Linpack." This module
//! models component failures, the degraded cluster that results, and a
//! simple fleet-level MTBF survey, so experiments can reproduce exactly
//! that scenario (lose a node, re-estimate what you can still measure).

use crate::node::NodeRole;
use crate::topology::ClusterSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which component of a node failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailedComponent {
    Motherboard,
    Cpu,
    Disk,
    Psu,
    Nic,
    Fan,
}

impl FailedComponent {
    pub const ALL: [FailedComponent; 6] = [
        FailedComponent::Motherboard,
        FailedComponent::Cpu,
        FailedComponent::Disk,
        FailedComponent::Psu,
        FailedComponent::Nic,
        FailedComponent::Fan,
    ];

    /// Does this failure take the node fully offline (vs degraded)?
    pub fn is_fatal(self) -> bool {
        matches!(
            self,
            FailedComponent::Motherboard | FailedComponent::Cpu | FailedComponent::Psu
        )
    }

    /// The hardware component a provisioning fault of `kind` most
    /// plausibly indicates, used when quarantined nodes are mapped onto
    /// a [`DegradedCluster`]: a node that hangs at boot looks like a dead
    /// motherboard, repeated DHCP timeouts like a bad NIC, a failed
    /// scriptlet or persistent transient error like a disk that needs
    /// reinstalling, and a power loss like a dead PSU.
    pub fn from_fault_kind(kind: xcbc_fault::FaultKind) -> FailedComponent {
        match kind {
            xcbc_fault::FaultKind::Transient => FailedComponent::Disk,
            xcbc_fault::FaultKind::Timeout => FailedComponent::Nic,
            xcbc_fault::FaultKind::Hang => FailedComponent::Motherboard,
            xcbc_fault::FaultKind::ScriptletError => FailedComponent::Disk,
            xcbc_fault::FaultKind::PowerLoss => FailedComponent::Psu,
        }
    }
}

/// One injected failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    pub hostname: String,
    pub component: FailedComponent,
}

/// A cluster with a set of failures applied.
#[derive(Debug, Clone)]
pub struct DegradedCluster {
    pub spec: ClusterSpec,
    pub failures: Vec<Failure>,
}

impl DegradedCluster {
    /// Apply failures to a healthy cluster.
    pub fn new(spec: ClusterSpec, failures: Vec<Failure>) -> Self {
        DegradedCluster { spec, failures }
    }

    /// Build a degraded cluster from provisioning quarantine: each
    /// quarantined node becomes a [`Failure`] whose component is derived
    /// from the fault kind that exhausted its retry budget (see
    /// [`FailedComponent::from_fault_kind`]).
    pub fn from_quarantine<'a>(
        spec: ClusterSpec,
        quarantined: impl IntoIterator<Item = (&'a str, xcbc_fault::FaultKind)>,
    ) -> Self {
        let failures = quarantined
            .into_iter()
            .map(|(hostname, kind)| Failure {
                hostname: hostname.to_string(),
                component: FailedComponent::from_fault_kind(kind),
            })
            .collect();
        DegradedCluster::new(spec, failures)
    }

    /// Hostnames that are fully offline.
    pub fn offline_nodes(&self) -> Vec<&str> {
        self.failures
            .iter()
            .filter(|f| f.component.is_fatal())
            .map(|f| f.hostname.as_str())
            .collect()
    }

    /// Nodes still usable (possibly degraded).
    pub fn usable_nodes(&self) -> Vec<&crate::node::NodeSpec> {
        let offline = self.offline_nodes();
        self.spec
            .nodes
            .iter()
            .filter(|n| !offline.contains(&n.hostname.as_str()))
            .collect()
    }

    /// Rpeak of what still powers on.
    pub fn degraded_rpeak_gflops(&self) -> f64 {
        self.usable_nodes().iter().map(|n| n.rpeak_gflops()).sum()
    }

    /// Can the degraded cluster still run a whole-machine MPI job?
    /// (Any fatal failure on a compute node, or a NIC failure anywhere,
    /// breaks the all-node run — the Table 5 situation.)
    pub fn can_run_full_linpack(&self) -> bool {
        if !self.offline_nodes().is_empty() {
            return false;
        }
        !self
            .failures
            .iter()
            .any(|f| f.component == FailedComponent::Nic)
    }
}

/// Sample failures over `hours` of operation given a per-component
/// hourly failure rate (cheap consumer parts: ~1e-5/h ≈ 11-year MTBF).
pub fn sample_failures(
    spec: &ClusterSpec,
    hourly_rate: f64,
    hours: u32,
    seed: u64,
) -> Vec<Failure> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut failures = Vec::new();
    let p_window = 1.0 - (1.0 - hourly_rate).powi(hours as i32);
    for node in &spec.nodes {
        for component in FailedComponent::ALL {
            // skip components the node does not have
            if component == FailedComponent::Disk && node.is_diskless() {
                continue;
            }
            if component == FailedComponent::Fan && !node.cooler.has_fan {
                continue;
            }
            if rng.gen_bool(p_window.clamp(0.0, 1.0)) {
                failures.push(Failure {
                    hostname: node.hostname.clone(),
                    component,
                });
            }
        }
    }
    let _ = NodeRole::Compute; // silence unused-import lint pathways
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::littlefe_modified;

    /// The Table 5 scenario: one LittleFe node dies before the Linpack
    /// run; the team estimates Rmax instead of measuring it.
    #[test]
    fn table5_footnote_scenario() {
        let cluster = littlefe_modified();
        let full_rpeak = cluster.rpeak_gflops();
        let degraded = DegradedCluster::new(
            cluster,
            vec![Failure {
                hostname: "compute-0-3".to_string(),
                component: FailedComponent::Motherboard,
            }],
        );
        assert!(
            !degraded.can_run_full_linpack(),
            "no 12-core Linpack possible"
        );
        // 5 of 6 nodes: 5/6 of Rpeak still available
        assert!((degraded.degraded_rpeak_gflops() - full_rpeak * 5.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn non_fatal_failures_keep_nodes_usable() {
        let degraded = DegradedCluster::new(
            littlefe_modified(),
            vec![Failure {
                hostname: "compute-0-0".into(),
                component: FailedComponent::Fan,
            }],
        );
        assert!(degraded.offline_nodes().is_empty());
        assert_eq!(degraded.usable_nodes().len(), 6);
        assert!(
            degraded.can_run_full_linpack(),
            "a degraded fan does not stop HPL"
        );
    }

    #[test]
    fn nic_failure_breaks_full_run_but_not_node() {
        let degraded = DegradedCluster::new(
            littlefe_modified(),
            vec![Failure {
                hostname: "compute-0-1".into(),
                component: FailedComponent::Nic,
            }],
        );
        assert!(degraded.offline_nodes().is_empty());
        assert!(!degraded.can_run_full_linpack());
    }

    #[test]
    fn sampling_respects_hardware_presence() {
        // Limulus blades are diskless: no disk failures possible there
        let spec = crate::specs::limulus_hpc200();
        let failures = sample_failures(&spec, 0.9, 1, 3); // near-certain
        for f in &failures {
            if f.component == FailedComponent::Disk {
                assert_eq!(f.hostname, "limulus", "only the head has disks");
            }
        }
        assert!(!failures.is_empty());
    }

    #[test]
    fn quarantine_maps_fault_kinds_to_components() {
        use xcbc_fault::FaultKind;
        let degraded = DegradedCluster::from_quarantine(
            littlefe_modified(),
            vec![
                ("compute-0-3", FaultKind::Hang),
                ("compute-0-1", FaultKind::Timeout),
            ],
        );
        // A boot hang is fatal (motherboard); a DHCP timeout is a NIC.
        assert_eq!(degraded.offline_nodes(), vec!["compute-0-3"]);
        assert_eq!(degraded.usable_nodes().len(), 5);
        assert!(
            !degraded.can_run_full_linpack(),
            "NIC quarantine breaks the all-node run"
        );
    }

    #[test]
    fn scriptlet_quarantine_needs_reinstall() {
        use xcbc_fault::FaultKind;
        let degraded = DegradedCluster::from_quarantine(
            littlefe_modified(),
            vec![("compute-0-2", FaultKind::ScriptletError)],
        );
        assert_eq!(degraded.failures[0].component, FailedComponent::Disk);
        assert!(degraded.offline_nodes().is_empty());
    }

    #[test]
    fn zero_rate_no_failures() {
        let spec = littlefe_modified();
        assert!(sample_failures(&spec, 0.0, 10_000, 1).is_empty());
    }

    #[test]
    fn sampling_deterministic() {
        let spec = littlefe_modified();
        let a = sample_failures(&spec, 1e-4, 8760, 7);
        let b = sample_failures(&spec, 1e-4, 8760, 7);
        assert_eq!(a, b);
    }
}

//! Hardware acceptance testing — the post-assembly burn-in.
//!
//! §5.1 walks through assembling a LittleFe from parts; the natural next
//! curriculum step is "prove the assembly is sound". The suite checks
//! exactly the constraints the build narrative raises: socket/board
//! match, cooler fit and capacity, PSU sizing, disk presence for the
//! intended provisioning path, and NIC inventory for the node's role.

use crate::node::{NodeRole, NodeSpec};
use crate::thermal::{check_node_thermals, ThermalIssue};
use crate::topology::ClusterSpec;

/// One acceptance check outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceptanceCheck {
    pub node: String,
    pub check: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// A node-level acceptance run.
pub fn check_node(
    node: &NodeSpec,
    bay_clearance_mm: f64,
    needs_disk: bool,
) -> Vec<AcceptanceCheck> {
    let mut out = Vec::new();

    // socket match
    let socket_ok = node.board.socket == node.cpu.socket;
    out.push(AcceptanceCheck {
        node: node.hostname.clone(),
        check: "cpu-socket-match",
        passed: socket_ok,
        detail: format!("board {} vs cpu {}", node.board.socket, node.cpu.socket),
    });

    // thermals
    let thermal_issues: Vec<ThermalIssue> = check_node_thermals(node, bay_clearance_mm);
    out.push(AcceptanceCheck {
        node: node.hostname.clone(),
        check: "thermal",
        passed: thermal_issues.is_empty(),
        detail: if thermal_issues.is_empty() {
            "cooler fits and covers TDP".to_string()
        } else {
            thermal_issues
                .iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        },
    });

    // power (only meaningful for per-node supplies)
    if let Some(psu) = &node.psu {
        let ok = node.load_watts() * 1.2 <= psu.watts;
        out.push(AcceptanceCheck {
            node: node.hostname.clone(),
            check: "psu-headroom",
            passed: ok,
            detail: format!(
                "{:.1} W load vs {:.0} W supply",
                node.load_watts(),
                psu.watts
            ),
        });
    }

    // disk presence for the provisioning path
    if needs_disk {
        out.push(AcceptanceCheck {
            node: node.hostname.clone(),
            check: "disk-present",
            passed: !node.is_diskless(),
            detail: format!("{} GB local disk", node.disk_capacity_gb()),
        });
    }

    // NIC inventory
    let needed = if node.role == NodeRole::Frontend {
        2
    } else {
        1
    };
    out.push(AcceptanceCheck {
        node: node.hostname.clone(),
        check: "nic-count",
        passed: node.nics.len() >= needed,
        detail: format!("{} of {} required", node.nics.len(), needed),
    });

    out
}

/// Cluster-level acceptance: every node plus the shared power budget.
pub fn check_cluster(
    cluster: &ClusterSpec,
    bay_clearance_mm: f64,
    needs_disks: bool,
) -> Vec<AcceptanceCheck> {
    let mut out = Vec::new();
    for node in &cluster.nodes {
        out.extend(check_node(node, bay_clearance_mm, needs_disks));
    }
    out.push(AcceptanceCheck {
        node: "(cluster)".to_string(),
        check: "power-budget",
        passed: cluster.power_budget_ok(),
        detail: format!("{:.1} W total load", cluster.load_watts()),
    });
    out
}

/// Summarize a run: (passed, failed).
pub fn summarize(checks: &[AcceptanceCheck]) -> (usize, usize) {
    let passed = checks.iter().filter(|c| c.passed).count();
    (passed, checks.len() - passed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw;
    use crate::specs::{limulus_hpc200, littlefe_modified, littlefe_v4};
    use crate::thermal::{DESKSIDE_CLEARANCE_MM, LITTLEFE_BAY_CLEARANCE_MM};

    #[test]
    fn modified_littlefe_passes_everything() {
        let checks = check_cluster(&littlefe_modified(), LITTLEFE_BAY_CLEARANCE_MM, true);
        let (passed, failed) = summarize(&checks);
        assert_eq!(failed, 0, "{checks:?}");
        assert!(passed > 20);
    }

    #[test]
    fn v4_littlefe_fails_disk_checks_for_rocks_path() {
        let checks = check_cluster(&littlefe_v4(), LITTLEFE_BAY_CLEARANCE_MM, true);
        let disk_failures: Vec<_> = checks
            .iter()
            .filter(|c| c.check == "disk-present" && !c.passed)
            .collect();
        assert_eq!(disk_failures.len(), 5, "five diskless compute nodes");
    }

    #[test]
    fn limulus_passes_in_deskside_case_without_disk_requirement() {
        // the XNIT path doesn't need local disks
        let checks = check_cluster(&limulus_hpc200(), DESKSIDE_CLEARANCE_MM, false);
        let (_, failed) = summarize(&checks);
        assert_eq!(failed, 0, "{checks:?}");
    }

    #[test]
    fn socket_mismatch_caught() {
        // a Celeron G1840 (LGA-1150) dropped onto the old Atom board
        let node = NodeSpec::new("frankenstein", NodeRole::Compute)
            .board(hw::ATOM_BOARD_D510MO)
            .cpu(hw::CELERON_G1840)
            .disk(hw::CRUCIAL_M550_MSATA)
            .psu(hw::PER_NODE_PSU)
            .build();
        let checks = check_node(&node, LITTLEFE_BAY_CLEARANCE_MM, true);
        let socket = checks
            .iter()
            .find(|c| c.check == "cpu-socket-match")
            .unwrap();
        assert!(!socket.passed);
        assert!(socket.detail.contains("FCBGA559"));
    }

    #[test]
    fn undersized_psu_caught() {
        let node = NodeSpec::new("brownout", NodeRole::Compute)
            .cpu(hw::CELERON_G1840)
            .disk(hw::CRUCIAL_M550_MSATA)
            .psu(hw::Psu {
                name: "tiny 40W",
                watts: 40.0,
            })
            .build();
        let checks = check_node(&node, LITTLEFE_BAY_CLEARANCE_MM, true);
        let psu = checks.iter().find(|c| c.check == "psu-headroom").unwrap();
        assert!(!psu.passed);
    }

    #[test]
    fn summary_counts() {
        let checks = vec![
            AcceptanceCheck {
                node: "a".into(),
                check: "x",
                passed: true,
                detail: String::new(),
            },
            AcceptanceCheck {
                node: "a".into(),
                check: "y",
                passed: false,
                detail: String::new(),
            },
        ];
        assert_eq!(summarize(&checks), (1, 1));
    }
}

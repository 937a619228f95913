//! Thermal/mechanical constraint checking.
//!
//! §5.1 spends two paragraphs on cooling: the Haswell Celeron needs a
//! real CPU fan (the Atom did not), the stock Intel cooler "is too large
//! to fit in the space allocated per LittleFe node", and the Rosewill
//! RCX-Z775-LP low-profile cooler "fits well in the allotted space".
//! This module turns those statements into checkable constraints.

use crate::node::NodeSpec;

/// Vertical clearance of one LittleFe node bay, millimetres. The
/// mini-ITX boards stack with ~40 mm between board surface and the next
/// tray.
pub const LITTLEFE_BAY_CLEARANCE_MM: f64 = 40.0;

/// A thermal or mechanical problem with a node build.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalIssue {
    /// The cooler stack is taller than the bay allows.
    CoolerDoesNotFit {
        node: String,
        cooler: String,
        height_mm: f64,
        clearance_mm: f64,
    },
    /// The cooler cannot dissipate the CPU's thermal design power.
    InsufficientCooling {
        node: String,
        cooler: String,
        cpu_tdp: f64,
        capacity: f64,
    },
    /// CPU needs a fan but the cooler is passive.
    NeedsFan { node: String, cpu: String },
}

impl std::fmt::Display for ThermalIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThermalIssue::CoolerDoesNotFit {
                node,
                cooler,
                height_mm,
                clearance_mm,
            } => write!(
                f,
                "{node}: {cooler} ({height_mm} mm) does not fit in {clearance_mm} mm bay"
            ),
            ThermalIssue::InsufficientCooling {
                node,
                cooler,
                cpu_tdp,
                capacity,
            } => write!(
                f,
                "{node}: {cooler} ({capacity} W) cannot cool a {cpu_tdp} W CPU"
            ),
            ThermalIssue::NeedsFan { node, cpu } => {
                write!(f, "{node}: {cpu} requires active cooling")
            }
        }
    }
}

/// Check one node against a bay clearance.
pub fn check_node_thermals(node: &NodeSpec, clearance_mm: f64) -> Vec<ThermalIssue> {
    let mut issues = Vec::new();
    if node.cooler.height_mm > clearance_mm {
        issues.push(ThermalIssue::CoolerDoesNotFit {
            node: node.hostname.clone(),
            cooler: node.cooler.name.to_string(),
            height_mm: node.cooler.height_mm,
            clearance_mm,
        });
    }
    if node.cooler.capacity_watts < node.cpu.tdp_watts {
        issues.push(ThermalIssue::InsufficientCooling {
            node: node.hostname.clone(),
            cooler: node.cooler.name.to_string(),
            cpu_tdp: node.cpu.tdp_watts,
            capacity: node.cooler.capacity_watts,
        });
    }
    // anything over 20 W TDP needs a fan in a LittleFe-style open frame
    if node.cpu.tdp_watts > 20.0 && !node.cooler.has_fan {
        issues.push(ThermalIssue::NeedsFan {
            node: node.hostname.clone(),
            cpu: node.cpu.name.to_string(),
        });
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw;
    use crate::node::{NodeRole, NodeSpec};

    fn node(cpu: hw::CpuModel, cooler: hw::Cooler) -> NodeSpec {
        NodeSpec::new("n0", NodeRole::Compute)
            .cpu(cpu)
            .cooler(cooler)
            .build()
    }

    #[test]
    fn atom_with_heatsink_is_fine_in_bay() {
        let n = node(hw::ATOM_D510, hw::ATOM_HEATSINK);
        assert!(check_node_thermals(&n, LITTLEFE_BAY_CLEARANCE_MM).is_empty());
    }

    #[test]
    fn celeron_with_stock_cooler_does_not_fit_littlefe_bay() {
        // the paper: "The fan that comes packaged with the Celeron G1840
        // processor we used is too large to fit"
        let n = node(hw::CELERON_G1840, hw::INTEL_STOCK_COOLER);
        let issues = check_node_thermals(&n, LITTLEFE_BAY_CLEARANCE_MM);
        assert!(issues
            .iter()
            .any(|i| matches!(i, ThermalIssue::CoolerDoesNotFit { .. })));
    }

    #[test]
    fn celeron_with_rosewill_fits_and_cools() {
        // "We chose the Rosewill RCX-Z775-LP ... as it fits well"
        let n = node(hw::CELERON_G1840, hw::ROSEWILL_RCX_Z775_LP);
        assert!(check_node_thermals(&n, LITTLEFE_BAY_CLEARANCE_MM).is_empty());
    }

    #[test]
    fn celeron_with_atom_heatsink_overheats() {
        let n = node(hw::CELERON_G1840, hw::ATOM_HEATSINK);
        let issues = check_node_thermals(&n, LITTLEFE_BAY_CLEARANCE_MM);
        assert!(issues
            .iter()
            .any(|i| matches!(i, ThermalIssue::InsufficientCooling { .. })));
        assert!(issues
            .iter()
            .any(|i| matches!(i, ThermalIssue::NeedsFan { .. })));
    }

    #[test]
    fn stock_cooler_fine_in_deskside_case() {
        let n = node(hw::I7_4770S, hw::INTEL_STOCK_COOLER);
        // a full deskside case (Limulus) leaves ~160 mm above the board
        assert!(check_node_thermals(&n, 160.0).is_empty());
    }

    #[test]
    fn issues_render() {
        let n = node(hw::CELERON_G1840, hw::ATOM_HEATSINK);
        for i in check_node_thermals(&n, LITTLEFE_BAY_CLEARANCE_MM) {
            assert!(!i.to_string().is_empty());
        }
    }

    #[test]
    fn whole_modified_littlefe_passes() {
        for n in &crate::specs::littlefe_modified().nodes {
            assert!(check_node_thermals(n, LITTLEFE_BAY_CLEARANCE_MM).is_empty());
        }
    }
}

//! Cluster-level specification: a frontend, compute nodes, a network, and
//! (optionally) a chassis-shared power supply.

use crate::hw::Psu;
use crate::node::{NodeRole, NodeSpec};

/// The private interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    pub name: String,
    pub speed_gbps: f64,
    /// One-way small-message latency in microseconds.
    pub latency_us: f64,
    pub switch_ports: u32,
}

impl NetworkSpec {
    /// The GbE switch both deskside clusters use.
    pub fn gigabit_ethernet(ports: u32) -> Self {
        NetworkSpec {
            name: "Gigabit Ethernet".to_string(),
            speed_gbps: 1.0,
            latency_us: 50.0,
            switch_ports: ports,
        }
    }
}

/// A whole cluster build.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    pub name: String,
    pub nodes: Vec<NodeSpec>,
    pub network: NetworkSpec,
    /// Chassis-shared PSU, if the design uses one (original LittleFe,
    /// Limulus). Mutually exclusive in practice with per-node PSUs.
    pub shared_psu: Option<Psu>,
    /// Chassis weight in pounds (both papers' systems are "luggable":
    /// LittleFe < 50 lb, Limulus = 50 lb).
    pub weight_lbs: f64,
}

impl ClusterSpec {
    pub fn new(name: impl Into<String>, network: NetworkSpec) -> Self {
        ClusterSpec {
            name: name.into(),
            nodes: Vec::new(),
            network,
            shared_psu: None,
            weight_lbs: 0.0,
        }
    }

    pub fn frontend(&self) -> Option<&NodeSpec> {
        self.nodes.iter().find(|n| n.role == NodeRole::Frontend)
    }

    pub fn compute_nodes(&self) -> impl Iterator<Item = &NodeSpec> {
        self.nodes.iter().filter(|n| n.role == NodeRole::Compute)
    }

    /// Node count (all roles) — the "Nodes" column of Tables 3 and 4.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// CPU package count — Table 4's "CPUs" column.
    pub fn cpu_count(&self) -> u32 {
        self.nodes.iter().map(|n| n.sockets).sum()
    }

    /// Total cores across all nodes — Table 4's "Cores" column.
    ///
    /// Note: in the paper's Table 4, *all* nodes (head + compute) count —
    /// the Limulus headnode participates in computation.
    pub fn compute_cores(&self) -> u32 {
        self.nodes.iter().map(|n| n.cores()).sum()
    }

    /// Theoretical peak over all nodes, GFLOPS.
    pub fn rpeak_gflops(&self) -> f64 {
        self.nodes.iter().map(|n| n.rpeak_gflops()).sum()
    }

    /// Whole-cluster power under load, watts.
    pub fn load_watts(&self) -> f64 {
        self.nodes.iter().map(|n| n.load_watts()).sum()
    }

    /// Whole-cluster idle power, watts.
    pub fn idle_watts(&self) -> f64 {
        self.nodes.iter().map(|n| n.idle_watts()).sum()
    }

    /// Does the power design hold? Shared-PSU clusters must fit the whole
    /// load in the supply's rating (with 20% headroom); per-node-PSU
    /// nodes must each fit their own.
    pub fn power_budget_ok(&self) -> bool {
        match &self.shared_psu {
            Some(psu) => self.load_watts() * 1.2 <= psu.watts,
            None => self.nodes.iter().all(|n| {
                n.psu
                    .as_ref()
                    .map(|p| n.load_watts() * 1.2 <= p.watts)
                    .unwrap_or(false)
            }),
        }
    }

    /// Can Rocks provision this cluster from scratch? Every node needs a
    /// disk and the frontend needs two NICs. (The Limulus fails this —
    /// diskless computes — which is exactly why the paper pairs it with
    /// XNIT instead.)
    pub fn rocks_installable(&self) -> (bool, Vec<String>) {
        let mut reasons = Vec::new();
        match self.frontend() {
            None => reasons.push("no frontend node".to_string()),
            Some(fe) => {
                if !fe.can_be_frontend() {
                    reasons.push(format!("frontend {} is not dual-homed", fe.hostname));
                }
                if fe.is_diskless() {
                    reasons.push(format!("frontend {} has no disk", fe.hostname));
                }
            }
        }
        for n in self.compute_nodes() {
            if n.is_diskless() {
                reasons.push(format!(
                    "{} is diskless (Rocks does not support diskless installation)",
                    n.hostname
                ));
            }
        }
        (reasons.is_empty(), reasons)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw;
    use crate::node::NodeSpec;

    fn tiny_cluster(diskful: bool) -> ClusterSpec {
        let mut c = ClusterSpec::new("test", NetworkSpec::gigabit_ethernet(8));
        let mut fe = NodeSpec::new("frontend", NodeRole::Frontend)
            .nic(hw::GBE_NIC)
            .disk(hw::CRUCIAL_M550_MSATA)
            .psu(hw::PER_NODE_PSU)
            .build();
        if !diskful {
            fe.disks.clear();
        }
        c.nodes.push(fe);
        for i in 0..2 {
            let mut n = NodeSpec::new(format!("compute-0-{i}"), NodeRole::Compute)
                .psu(hw::PER_NODE_PSU)
                .disk(hw::CRUCIAL_M550_MSATA)
                .build();
            if !diskful {
                n.disks.clear();
            }
            c.nodes.push(n);
        }
        c
    }

    #[test]
    fn aggregates() {
        let c = tiny_cluster(true);
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.cpu_count(), 3);
        assert_eq!(c.compute_cores(), 6);
        assert!((c.rpeak_gflops() - 3.0 * 89.6).abs() < 1e-9);
        assert!(c.load_watts() > c.idle_watts());
    }

    #[test]
    fn rocks_check_diskful_ok() {
        let (ok, reasons) = tiny_cluster(true).rocks_installable();
        assert!(ok, "{reasons:?}");
    }

    #[test]
    fn rocks_check_diskless_fails() {
        let (ok, reasons) = tiny_cluster(false).rocks_installable();
        assert!(!ok);
        assert!(reasons.iter().any(|r| r.contains("diskless")));
    }

    #[test]
    fn rocks_check_needs_frontend() {
        let mut c = tiny_cluster(true);
        c.nodes.remove(0);
        let (ok, reasons) = c.rocks_installable();
        assert!(!ok);
        assert_eq!(reasons, vec!["no frontend node"]);
    }

    #[test]
    fn rocks_check_single_homed_frontend_fails() {
        let mut c = tiny_cluster(true);
        c.nodes[0].nics.truncate(1);
        let (ok, reasons) = c.rocks_installable();
        assert!(!ok);
        assert!(reasons[0].contains("dual-homed"));
    }

    #[test]
    fn per_node_psu_budget() {
        let c = tiny_cluster(true);
        assert!(c.power_budget_ok());
    }

    #[test]
    fn shared_psu_budget() {
        let mut c = tiny_cluster(true);
        for n in &mut c.nodes {
            n.psu = None;
        }
        c.shared_psu = Some(hw::Psu {
            name: "tiny",
            watts: 50.0,
        });
        assert!(!c.power_budget_ok(), "3 haswell nodes cannot run on 50 W");
        c.shared_psu = Some(hw::LIMULUS_850W_PSU);
        assert!(c.power_budget_ok());
    }

    #[test]
    fn missing_psu_everywhere_fails_budget() {
        let mut c = tiny_cluster(true);
        for n in &mut c.nodes {
            n.psu = None;
        }
        assert!(!c.power_budget_ok());
    }
}

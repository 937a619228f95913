//! Node specifications: one motherboard-CPU-disk assembly in a chassis.

use crate::flops;
use crate::hw::{Cooler, CpuModel, DiskDrive, Motherboard, Nic, Psu};

/// Role of a node in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Rocks "frontend" appliance — dual-homed head node.
    Frontend,
    /// Compute node.
    Compute,
    /// NAS/storage appliance.
    Storage,
}

/// Power state, managed by [`crate::power::PowerManager`] on the Limulus
/// ("power management that turns nodes on and off as needed").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerState {
    Off,
    Booting,
    On,
}

/// A single node's hardware build.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    pub hostname: String,
    pub role: NodeRole,
    pub board: Motherboard,
    pub cpu: CpuModel,
    /// Populated CPU sockets (1 for every system in the paper).
    pub sockets: u32,
    pub ram_gb: u32,
    pub disks: Vec<DiskDrive>,
    pub nics: Vec<Nic>,
    pub cooler: Cooler,
    /// `Some` when the node has its own supply (modified LittleFe);
    /// `None` when it draws from a chassis-shared supply.
    pub psu: Option<Psu>,
    pub power_state: PowerState,
}

impl NodeSpec {
    /// Entry point of the fluent builder (deliberately returns the
    /// builder, not `Self`).
    #[allow(clippy::new_ret_no_self)]
    pub fn new(hostname: impl Into<String>, role: NodeRole) -> NodeSpecBuilder {
        NodeSpecBuilder::new(hostname, role)
    }

    /// Total cores on this node.
    pub fn cores(&self) -> u32 {
        self.cpu.cores * self.sockets
    }

    /// Hardware threads on this node.
    pub fn threads(&self) -> u32 {
        self.cpu.threads() * self.sockets
    }

    /// Theoretical peak GFLOPS.
    pub fn rpeak_gflops(&self) -> f64 {
        flops::rpeak_gflops_cpu(&self.cpu) * self.sockets as f64
    }

    /// Is the node diskless (Limulus compute nodes are: "they are diskless
    /// in design, so a little less complex")? Rocks cannot provision such
    /// a node — the constraint that drove the LittleFe mSATA modification.
    pub fn is_diskless(&self) -> bool {
        self.disks.is_empty()
    }

    /// Total local disk capacity in GB.
    pub fn disk_capacity_gb(&self) -> u32 {
        self.disks.iter().map(|d| d.capacity_gb).sum()
    }

    /// Load power draw in watts (CPU measured + disks + 10 W board/RAM).
    pub fn load_watts(&self) -> f64 {
        self.cpu.measured_watts * self.sockets as f64
            + self.disks.iter().map(|d| d.watts).sum::<f64>()
            + 10.0
    }

    /// Idle draw (30% of CPU load figure + disks idle + board).
    pub fn idle_watts(&self) -> f64 {
        0.3 * self.cpu.measured_watts * self.sockets as f64
            + 0.5 * self.disks.iter().map(|d| d.watts).sum::<f64>()
            + 8.0
    }

    /// Can this node be dual-homed (Rocks frontend requirement)?
    pub fn can_be_frontend(&self) -> bool {
        self.nics.len() >= 2
    }
}

/// Builder for [`NodeSpec`].
pub struct NodeSpecBuilder {
    spec: NodeSpec,
}

impl NodeSpecBuilder {
    pub fn new(hostname: impl Into<String>, role: NodeRole) -> Self {
        NodeSpecBuilder {
            spec: NodeSpec {
                hostname: hostname.into(),
                role,
                board: crate::hw::GA_Q87TN,
                cpu: crate::hw::CELERON_G1840,
                sockets: 1,
                ram_gb: 4,
                disks: Vec::new(),
                nics: vec![crate::hw::GBE_NIC],
                cooler: crate::hw::ROSEWILL_RCX_Z775_LP,
                psu: None,
                power_state: PowerState::Off,
            },
        }
    }

    pub fn board(mut self, b: Motherboard) -> Self {
        self.spec.board = b;
        self
    }

    pub fn cpu(mut self, c: CpuModel) -> Self {
        self.spec.cpu = c;
        self
    }

    pub fn sockets(mut self, n: u32) -> Self {
        self.spec.sockets = n;
        self
    }

    pub fn ram_gb(mut self, n: u32) -> Self {
        self.spec.ram_gb = n;
        self
    }

    pub fn disk(mut self, d: DiskDrive) -> Self {
        self.spec.disks.push(d);
        self
    }

    pub fn nic(mut self, n: Nic) -> Self {
        self.spec.nics.push(n);
        self
    }

    pub fn cooler(mut self, c: Cooler) -> Self {
        self.spec.cooler = c;
        self
    }

    pub fn psu(mut self, p: Psu) -> Self {
        self.spec.psu = Some(p);
        self
    }

    pub fn build(self) -> NodeSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw;

    fn littlefe_node(i: u32) -> NodeSpec {
        NodeSpec::new(format!("compute-0-{i}"), NodeRole::Compute)
            .cpu(hw::CELERON_G1840)
            .disk(hw::CRUCIAL_M550_MSATA)
            .psu(hw::PER_NODE_PSU)
            .build()
    }

    #[test]
    fn cores_and_rpeak() {
        let n = littlefe_node(0);
        assert_eq!(n.cores(), 2);
        assert_eq!(n.threads(), 2);
        // 2 cores * 2.8 GHz * 16 flops = 89.6 GF
        assert!((n.rpeak_gflops() - 89.6).abs() < 1e-9);
    }

    #[test]
    fn diskless_detection() {
        let diskless = NodeSpec::new("n0", NodeRole::Compute)
            .cpu(hw::I7_4770S)
            .build();
        assert!(diskless.is_diskless());
        assert!(!littlefe_node(0).is_diskless());
        assert_eq!(littlefe_node(0).disk_capacity_gb(), 128);
    }

    #[test]
    fn power_draw_ordering() {
        let n = littlefe_node(0);
        assert!(n.load_watts() > n.idle_watts());
        // celeron node: 43.06 + 3.5 + 10
        assert!((n.load_watts() - 56.56).abs() < 1e-9);
    }

    #[test]
    fn frontend_needs_two_nics() {
        let single = NodeSpec::new("fe", NodeRole::Frontend).build();
        assert!(!single.can_be_frontend());
        let dual = NodeSpec::new("fe", NodeRole::Frontend)
            .nic(hw::GBE_NIC)
            .build();
        assert!(dual.can_be_frontend());
    }

    #[test]
    fn atom_node_draws_far_less() {
        let atom = NodeSpec::new("n", NodeRole::Compute)
            .cpu(hw::ATOM_D510)
            .board(hw::ATOM_BOARD_D510MO)
            .cooler(hw::ATOM_HEATSINK)
            .build();
        let haswell = littlefe_node(0);
        assert!(atom.load_watts() < haswell.load_watts() / 2.0);
    }
}

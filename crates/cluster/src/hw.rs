//! Hardware component catalog.
//!
//! Every part the paper's §5 build narrative names is encoded here with
//! its published characteristics, so the Table 4/5 numbers and the §5.1
//! design constraints (cooler height, per-node power) are *derived*, not
//! asserted.

/// A CPU model.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    pub name: &'static str,
    pub clock_ghz: f64,
    pub cores: u32,
    /// Double-precision FLOPs per cycle per core, as used by vendor Rpeak
    /// arithmetic (Haswell with FMA3+AVX2: 16).
    pub flops_per_cycle: u32,
    /// Thermal design power, watts.
    pub tdp_watts: f64,
    /// Measured package power under load (the paper quotes CPU Boss
    /// figures: D510 10.56 W vs G1840 43.06 W).
    pub measured_watts: f64,
    pub hyperthreading: bool,
    pub socket: &'static str,
}

impl CpuModel {
    /// Hardware threads exposed to the OS.
    pub fn threads(&self) -> u32 {
        if self.hyperthreading {
            self.cores * 2
        } else {
            self.cores
        }
    }
}

/// Intel Atom D510 — the historical LittleFe v4 CPU (§5.1: "The Atom
/// (D510) used historically in the LittleFe build uses 10.56 watts").
/// In-order Bonnell core, SSE3 only: 2 DP FLOPs/cycle.
pub const ATOM_D510: CpuModel = CpuModel {
    name: "Intel Atom D510",
    clock_ghz: 1.66,
    cores: 2,
    flops_per_cycle: 2,
    tdp_watts: 13.0,
    measured_watts: 10.56,
    hyperthreading: true,
    socket: "FCBGA559",
};

/// Intel Celeron G1840 — the modified-LittleFe CPU (§5.1). Haswell die;
/// the paper's Rpeak arithmetic (537.6 GF for 12 cores at 2.8 GHz) uses
/// the Haswell generation figure of 16 DP FLOPs/cycle. No hyperthreading
/// ("These CPU choices also eliminate the option of using
/// hyperthreading").
pub const CELERON_G1840: CpuModel = CpuModel {
    name: "Intel Celeron G1840",
    clock_ghz: 2.8,
    cores: 2,
    flops_per_cycle: 16,
    tdp_watts: 53.0,
    measured_watts: 43.06,
    hyperthreading: false,
    socket: "LGA-1150",
};

/// Intel Core i7-4770S — the Limulus HPC200 CPU (§5.2: "3.10GHz, 8MB
/// cache, 65 watts"). Haswell: 16 DP FLOPs/cycle, HT on.
pub const I7_4770S: CpuModel = CpuModel {
    name: "Intel Core i7-4770S",
    clock_ghz: 3.1,
    cores: 4,
    flops_per_cycle: 16,
    tdp_watts: 65.0,
    measured_watts: 65.0,
    hyperthreading: true,
    socket: "LGA-1150",
};

/// Disk technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskKind {
    /// Spinning laptop-type 2.5" drive.
    Hdd25,
    /// 2.5" SATA SSD.
    Ssd25,
    /// mSATA module mounted directly on the motherboard (§5.1: "an
    /// internal mini Serial-ATA (mSATA) drive that directly mounts to a
    /// compatible motherboard ... minimizing space ... while minimizing
    /// components that need to be isolated electronically").
    MSata,
}

/// A storage device.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskDrive {
    pub name: &'static str,
    pub kind: DiskKind,
    pub capacity_gb: u32,
    pub watts: f64,
    /// Whether the drive needs a physical mounting bay (mSATA does not).
    pub needs_bay: bool,
}

/// Crucial M550 128 GB mSATA — the per-node drive added to LittleFe so
/// Rocks (which "does not support diskless installation") can install.
pub const CRUCIAL_M550_MSATA: DiskDrive = DiskDrive {
    name: "Crucial M550 128GB mSATA",
    kind: DiskKind::MSata,
    capacity_gb: 128,
    watts: 3.5,
    needs_bay: false,
};

/// Generic 2.5" laptop HDD option §5.1 mentions as the alternative.
pub const LAPTOP_HDD_500GB: DiskDrive = DiskDrive {
    name: "2.5in laptop HDD 500GB",
    kind: DiskKind::Hdd25,
    capacity_gb: 500,
    watts: 2.5,
    needs_bay: true,
};

/// A network interface.
#[derive(Debug, Clone, PartialEq)]
pub struct Nic {
    pub name: &'static str,
    pub speed_gbps: f64,
}

/// Onboard Intel GbE (the GA-Q87TN has two).
pub const GBE_NIC: Nic = Nic {
    name: "Intel I217LM GbE",
    speed_gbps: 1.0,
};

/// Motherboard form factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormFactor {
    MiniItx,
    MicroAtx,
    Atx,
}

/// A motherboard.
#[derive(Debug, Clone, PartialEq)]
pub struct Motherboard {
    pub name: &'static str,
    pub form_factor: FormFactor,
    pub socket: &'static str,
    pub msata_slot: bool,
    pub nic_count: u32,
}

/// Gigabyte GA-Q87TN — the modified LittleFe board (§5.1: "mini-ITX form
/// factor, but using Gigabyte GA-Q87TN motherboards that use the LGA-1150
/// socket"; dual NIC so the headnode can be dual-homed).
pub const GA_Q87TN: Motherboard = Motherboard {
    name: "Gigabyte GA-Q87TN",
    form_factor: FormFactor::MiniItx,
    socket: "LGA-1150",
    msata_slot: true,
    nic_count: 2,
};

/// The historical Atom board.
pub const ATOM_BOARD_D510MO: Motherboard = Motherboard {
    name: "Intel D510MO",
    form_factor: FormFactor::MiniItx,
    socket: "FCBGA559",
    msata_slot: false,
    nic_count: 1,
};

/// A power supply.
#[derive(Debug, Clone, PartialEq)]
pub struct Psu {
    pub name: &'static str,
    pub watts: f64,
}

/// The per-node PicoPSU-style supply the modified LittleFe uses
/// (§5.1: "we added an individual power supply for each node").
pub const PER_NODE_PSU: Psu = Psu {
    name: "picoPSU-120 per-node supply",
    watts: 120.0,
};

/// The single shared supply of the original LittleFe design.
pub const LITTLEFE_SHARED_PSU: Psu = Psu {
    name: "LittleFe shared ATX supply",
    watts: 350.0,
};

/// The Limulus HPC200's 850 W supply (§5.2).
pub const LIMULUS_850W_PSU: Psu = Psu {
    name: "Limulus 850W supply",
    watts: 850.0,
};

/// CPU cooling solution with physical height (the binding constraint in
/// a LittleFe bay).
#[derive(Debug, Clone, PartialEq)]
pub struct Cooler {
    pub name: &'static str,
    /// Total stack height in millimetres.
    pub height_mm: f64,
    /// Maximum CPU power it can dissipate, watts.
    pub capacity_watts: f64,
    pub has_fan: bool,
}

/// Passive heat sink + chassis airflow — enough for the Atom
/// ("The original LittleFe used a heat sink on the CPU and a small add-on
/// fan to blow air over the heat sink fins").
pub const ATOM_HEATSINK: Cooler = Cooler {
    name: "passive heatsink + chassis fan",
    height_mm: 25.0,
    capacity_watts: 18.0,
    has_fan: false,
};

/// The stock Intel cooler bundled with the Celeron G1840 — "too large to
/// fit in the space allocated per LittleFe node".
pub const INTEL_STOCK_COOLER: Cooler = Cooler {
    name: "Intel stock cooler",
    height_mm: 47.0,
    capacity_watts: 73.0,
    has_fan: true,
};

/// Rosewill RCX-Z775-LP 80 mm low-profile cooler — "fits well in the
/// allotted space".
pub const ROSEWILL_RCX_Z775_LP: Cooler = Cooler {
    name: "Rosewill RCX-Z775-LP 80mm Low Profile",
    height_mm: 37.0,
    capacity_watts: 65.0,
    has_fan: true,
};

#[cfg(test)]
// the paper's hardware facts are constants; asserting them is the point
#[allow(clippy::assertions_on_constants)]
mod tests {
    use super::*;

    #[test]
    fn paper_power_figures() {
        // §5.1: "The Atom (D510) ... uses 10.56 watts versus 43.06 watts
        // for the Celeron G1840"
        assert_eq!(ATOM_D510.measured_watts, 10.56);
        assert_eq!(CELERON_G1840.measured_watts, 43.06);
        assert!(CELERON_G1840.measured_watts / ATOM_D510.measured_watts > 4.0);
    }

    #[test]
    fn celeron_has_no_hyperthreading() {
        assert!(!CELERON_G1840.hyperthreading);
        assert_eq!(CELERON_G1840.threads(), 2);
        assert!(I7_4770S.hyperthreading);
        assert_eq!(I7_4770S.threads(), 8);
    }

    #[test]
    fn paper_clock_rates_match_table4() {
        assert_eq!(CELERON_G1840.clock_ghz, 2.8);
        assert_eq!(I7_4770S.clock_ghz, 3.1);
    }

    #[test]
    fn msata_needs_no_bay() {
        assert!(!CRUCIAL_M550_MSATA.needs_bay);
        assert!(LAPTOP_HDD_500GB.needs_bay);
        assert_eq!(CRUCIAL_M550_MSATA.capacity_gb, 128);
    }

    #[test]
    fn boards_match_sockets() {
        assert_eq!(GA_Q87TN.socket, CELERON_G1840.socket);
        assert_eq!(GA_Q87TN.socket, I7_4770S.socket);
        assert_ne!(ATOM_BOARD_D510MO.socket, CELERON_G1840.socket);
        assert!(GA_Q87TN.msata_slot);
        assert_eq!(GA_Q87TN.nic_count, 2, "dual-homed headnode needs two NICs");
    }

    #[test]
    fn stock_cooler_taller_than_low_profile() {
        assert!(INTEL_STOCK_COOLER.height_mm > ROSEWILL_RCX_Z775_LP.height_mm);
        assert!(ROSEWILL_RCX_Z775_LP.capacity_watts >= CELERON_G1840.tdp_watts);
        assert!(ATOM_HEATSINK.capacity_watts >= ATOM_D510.tdp_watts);
        assert!(ATOM_HEATSINK.capacity_watts < CELERON_G1840.tdp_watts);
    }
}

//! The Table 3 deployment registry.
//!
//! "Deployed XCBC Clusters that had XSEDE Campus Bridging team
//! involvement" — six sites, 304 nodes, 2,708 cores, 49.61 TFLOPS —
//! plus the §4 goal: "By the end of 2020 ... exceed half a PetaFLOPS."

/// How a site adopted the toolkit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdoptionPath {
    /// Built from the ground up with the XCBC Rocks installation media.
    XcbcFromScratch,
    /// Uses the XNIT package repository on an existing system.
    XnitRepository,
}

/// One deployed cluster (a Table 3 row).
#[derive(Debug, Clone, PartialEq)]
pub struct Site {
    pub name: &'static str,
    pub nodes: u32,
    pub cores: u32,
    /// Published Rpeak in TFLOPS.
    pub rpeak_tflops: f64,
    pub path: AdoptionPath,
    pub other_info: &'static str,
    /// Minority Serving Institution or EPSCoR-state flag (§8: "all but
    /// one are at universities that are either Minority Serving
    /// Institutions or Institutions in an EPSCoR state").
    pub msi_or_epscor: bool,
}

/// Table 3, row for row.
pub fn deployed_sites() -> Vec<Site> {
    vec![
        Site {
            name: "University of Kansas",
            nodes: 220,
            cores: 1760,
            rpeak_tflops: 26.0,
            path: AdoptionPath::XcbcFromScratch,
            other_info: "Will be in production in summer 2015",
            msi_or_epscor: true, // Kansas is an EPSCoR state
        },
        Site {
            name: "Montana State University",
            nodes: 36,
            cores: 576,
            rpeak_tflops: 11.98,
            path: AdoptionPath::XnitRepository,
            other_info: "300 TB of Lustre storage",
            msi_or_epscor: true, // Montana is an EPSCoR state
        },
        Site {
            name: "Marshall University",
            nodes: 22,
            cores: 264,
            rpeak_tflops: 6.0,
            path: AdoptionPath::XcbcFromScratch,
            other_info: "8 GPU Nodes, 3584 CUDA Cores",
            msi_or_epscor: true, // West Virginia is an EPSCoR state
        },
        Site {
            name: "Pacific Basin Agricultural Research Center (Univ. of Hawaii - Hilo)",
            nodes: 16,
            cores: 80,
            rpeak_tflops: 4.3,
            path: AdoptionPath::XnitRepository,
            other_info: "40TB storage, 60TB scratch",
            msi_or_epscor: true, // Hawaii is EPSCoR; UH-Hilo is an MSI
        },
        Site {
            name: "Indiana University (LittleFe)",
            nodes: 6,
            cores: 12,
            rpeak_tflops: 0.54,
            path: AdoptionPath::XcbcFromScratch,
            other_info: "LittleFe Teaching Cluster",
            msi_or_epscor: false, // the one exception
        },
        Site {
            name: "Indiana University (Limulus)",
            nodes: 4,
            cores: 16,
            rpeak_tflops: 0.79,
            path: AdoptionPath::XnitRepository,
            other_info: "Limulus HPC 200 Cluster",
            msi_or_epscor: false,
        },
    ]
}

/// The Table 3 totals row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetTotals {
    pub sites: usize,
    pub nodes: u32,
    pub cores: u32,
    pub rpeak_tflops: f64,
}

/// Aggregate the registry.
pub fn fleet_totals() -> FleetTotals {
    let sites = deployed_sites();
    FleetTotals {
        sites: sites.len(),
        nodes: sites.iter().map(|s| s.nodes).sum(),
        cores: sites.iter().map(|s| s.cores).sum(),
        rpeak_tflops: sites.iter().map(|s| s.rpeak_tflops).sum(),
    }
}

/// Years to the half-petaflop 2020 goal at a given annual growth factor.
/// Returns `None` if growth ≤ 1 never reaches the goal.
pub fn years_to_half_petaflops(current_tflops: f64, annual_growth: f64) -> Option<u32> {
    const GOAL_TFLOPS: f64 = 500.0;
    if current_tflops >= GOAL_TFLOPS {
        return Some(0);
    }
    if annual_growth <= 1.0 {
        return None;
    }
    let years = (GOAL_TFLOPS / current_tflops).ln() / annual_growth.ln();
    Some(years.ceil() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_table3() {
        let t = fleet_totals();
        assert_eq!(t.sites, 6);
        assert_eq!(t.nodes, 304, "Table 3 total nodes");
        assert_eq!(t.cores, 2708, "Table 3 total cores");
        assert!(
            (t.rpeak_tflops - 49.61).abs() < 1e-9,
            "Table 3 total Rpeak: {}",
            t.rpeak_tflops
        );
    }

    #[test]
    fn adoption_paths_match_section4() {
        // "The first three clusters are built from the ground up with the
        // XCBC Rocks installation media, while those at Montana State
        // University and the University of Hawaii use the package
        // repository."
        let sites = deployed_sites();
        let by_name = |n: &str| sites.iter().find(|s| s.name.contains(n)).unwrap();
        assert_eq!(by_name("Kansas").path, AdoptionPath::XcbcFromScratch);
        assert_eq!(by_name("Marshall").path, AdoptionPath::XcbcFromScratch);
        assert_eq!(by_name("Montana").path, AdoptionPath::XnitRepository);
        assert_eq!(by_name("Hawaii").path, AdoptionPath::XnitRepository);
    }

    #[test]
    fn msi_epscor_all_but_iu() {
        // §8: "all but one are at universities that are either Minority
        // Serving Institutions or Institutions in an EPSCoR state" —
        // the IU systems are the exception (one institution, two rows).
        let sites = deployed_sites();
        let non: Vec<_> = sites.iter().filter(|s| !s.msi_or_epscor).collect();
        assert!(non.iter().all(|s| s.name.contains("Indiana")));
    }

    #[test]
    fn deskside_rows_match_cluster_specs() {
        // Table 3's IU rows equal the Table 4/5 hardware derivations
        let sites = deployed_sites();
        let lf = sites
            .iter()
            .find(|s| s.other_info.contains("LittleFe"))
            .unwrap();
        let spec = xcbc_cluster::specs::littlefe_modified();
        assert_eq!(lf.nodes, spec.node_count() as u32);
        assert_eq!(lf.cores, spec.compute_cores());
        assert!((lf.rpeak_tflops - spec.rpeak_gflops() / 1000.0).abs() < 0.01);

        let lm = sites
            .iter()
            .find(|s| s.other_info.contains("Limulus"))
            .unwrap();
        let spec = xcbc_cluster::specs::limulus_hpc200();
        assert_eq!(lm.nodes, spec.node_count() as u32);
        assert_eq!(lm.cores, spec.compute_cores());
        assert!((lm.rpeak_tflops - spec.rpeak_gflops() / 1000.0).abs() < 0.01);
    }

    #[test]
    fn marshall_gpu_cores_documented() {
        let sites = deployed_sites();
        let marshall = sites.iter().find(|s| s.name.contains("Marshall")).unwrap();
        assert!(marshall.other_info.contains("3584 CUDA"));
        // GPU peak sanity via the cluster crate
        assert!(xcbc_cluster::gpu_peak_gflops(3584, 1.4, 2) > 10_000.0);
    }

    #[test]
    fn half_petaflop_goal_projection() {
        let current = fleet_totals().rpeak_tflops;
        // 49.61 → 500 TF by end of 2020 (5.5 years) needs ~52% annual growth
        let years = years_to_half_petaflops(current, 1.52).unwrap();
        assert!(years <= 6, "{years} years at 52% growth");
        assert!(years_to_half_petaflops(current, 1.0).is_none());
        assert_eq!(years_to_half_petaflops(600.0, 1.1), Some(0));
    }
}

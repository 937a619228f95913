//! Bill-of-materials cost and the §8 cluster-vs-cloud TCO argument.
//!
//! "With a small cluster, one-time monies can be pooled to purchase a
//! hardware resource ... Cost is fixed at purchase time ... Use of
//! commercial cloud is typically an ongoing service expense rather than a
//! one-time capital expense."

/// One line of a bill of materials.
#[derive(Debug, Clone, PartialEq)]
pub struct BomLine {
    pub item: String,
    pub unit_usd: f64,
    pub quantity: u32,
}

impl BomLine {
    pub fn total(&self) -> f64 {
        self.unit_usd * self.quantity as f64
    }
}

/// A full bill of materials.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bom {
    pub system: String,
    pub lines: Vec<BomLine>,
}

impl Bom {
    pub fn new(system: impl Into<String>) -> Self {
        Bom {
            system: system.into(),
            lines: Vec::new(),
        }
    }

    pub fn line(mut self, item: impl Into<String>, unit_usd: f64, quantity: u32) -> Self {
        self.lines.push(BomLine {
            item: item.into(),
            unit_usd,
            quantity,
        });
        self
    }

    pub fn total_usd(&self) -> f64 {
        self.lines.iter().map(BomLine::total).sum()
    }

    /// Dollars per GFLOPS, rounded to whole dollars the way Table 5
    /// reports it ($7/GFLOP etc.).
    pub fn usd_per_gflops_rounded(&self, gflops: f64) -> u32 {
        (self.total_usd() / gflops).round() as u32
    }
}

/// The modified LittleFe's parts list (§5.1 components; totals to the
/// paper's $3,600 Table 5 figure).
pub fn littlefe_modified_bom() -> Bom {
    Bom::new("LittleFe (modified)")
        .line("Gigabyte GA-Q87TN motherboard", 155.0, 6)
        .line("Intel Celeron G1840", 55.0, 6)
        .line("Rosewill RCX-Z775-LP cooler", 15.0, 6)
        .line("Crucial M550 128GB mSATA", 80.0, 6)
        .line("4GB DDR3 SO-DIMM", 40.0, 6)
        .line("picoPSU + brick (per node)", 60.0, 6)
        .line("8-port GbE switch", 60.0, 1)
        .line("LittleFe v4 frame + hardware", 700.0, 1)
        .line("Cabling, misc", 410.0, 1)
}

/// The Limulus HPC200 is a single commercial SKU.
pub fn limulus_hpc200_bom() -> Bom {
    Bom::new("Limulus HPC200").line("Limulus HPC200 Personal Cluster Workstation", 5995.0, 1)
}

/// A Dell PowerEdge VRTX-class server configuration of comparable
/// capability — the paper: "these prices are an order of magnitude lower
/// than similarly powered systems in a typical server configuration".
pub fn server_configuration_bom() -> Bom {
    Bom::new("PowerEdge VRTX-class server config").line(
        "Chassis + 4 blade nodes, configured",
        42000.0,
        1,
    )
}

/// A commercial cloud offering for the §8 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudOffering {
    pub name: String,
    /// Hourly price of an instance roughly matching one cluster node.
    pub usd_per_node_hour: f64,
}

impl CloudOffering {
    /// c3.2xlarge-era pricing (2015): ~$0.42/hr per node-equivalent.
    pub fn aws_2015() -> Self {
        CloudOffering {
            name: "AWS c3.2xlarge (2015)".to_string(),
            usd_per_node_hour: 0.42,
        }
    }
}

/// Cluster capex vs cloud opex over time.
#[derive(Debug, Clone, PartialEq)]
pub struct TcoComparison {
    pub cluster_capex_usd: f64,
    /// Cluster running cost per month (power at $0.12/kWh).
    pub cluster_opex_usd_per_month: f64,
    pub cloud_usd_per_month: f64,
    /// Months until the cluster's cumulative cost drops below cloud's.
    pub crossover_months: Option<u32>,
}

impl TcoComparison {
    /// Compare owning a cluster against renting `nodes` cloud instances
    /// for `hours_per_month` each.
    pub fn compute(
        capex_usd: f64,
        cluster_watts: f64,
        cloud: &CloudOffering,
        nodes: u32,
        hours_per_month: f64,
        horizon_months: u32,
    ) -> Self {
        let cluster_opex = cluster_watts / 1000.0 * hours_per_month * 0.12;
        let cloud_monthly = cloud.usd_per_node_hour * nodes as f64 * hours_per_month;
        let mut crossover = None;
        for m in 1..=horizon_months {
            let cluster_total = capex_usd + cluster_opex * m as f64;
            let cloud_total = cloud_monthly * m as f64;
            if cluster_total <= cloud_total {
                crossover = Some(m);
                break;
            }
        }
        TcoComparison {
            cluster_capex_usd: capex_usd,
            cluster_opex_usd_per_month: cluster_opex,
            cloud_usd_per_month: cloud_monthly,
            crossover_months: crossover,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs;

    #[test]
    fn littlefe_bom_totals_to_paper_cost() {
        let bom = littlefe_modified_bom();
        assert!(
            (bom.total_usd() - specs::LITTLEFE_COST_USD).abs() < 1e-9,
            "{}",
            bom.total_usd()
        );
    }

    #[test]
    fn limulus_bom_is_the_sku_price() {
        assert!((limulus_hpc200_bom().total_usd() - specs::LIMULUS_COST_USD).abs() < 1e-9);
    }

    #[test]
    fn table5_price_performance_rounding() {
        // Table 5: LittleFe $7/GFLOP Rpeak, $9 Rmax; Limulus $8, $12.
        let lf = littlefe_modified_bom();
        let lm = limulus_hpc200_bom();
        assert_eq!(lf.usd_per_gflops_rounded(537.6), 7);
        assert_eq!(lf.usd_per_gflops_rounded(403.2), 9);
        assert_eq!(lm.usd_per_gflops_rounded(793.6), 8);
        assert_eq!(lm.usd_per_gflops_rounded(498.3), 12);
    }

    #[test]
    fn order_of_magnitude_vs_server_config() {
        let server = server_configuration_bom().total_usd();
        assert!(server / littlefe_modified_bom().total_usd() >= 10.0);
        assert!(server / limulus_hpc200_bom().total_usd() >= 7.0);
    }

    #[test]
    fn cloud_crossover_exists_for_steady_usage() {
        // 6 nodes busy 8h/day ≈ 240 h/month: the cluster wins within a year
        let c = specs::littlefe_modified();
        let tco = TcoComparison::compute(
            specs::LITTLEFE_COST_USD,
            c.load_watts(),
            &CloudOffering::aws_2015(),
            6,
            240.0,
            60,
        );
        let m = tco.crossover_months.expect("cluster must win eventually");
        assert!(m <= 12, "crossover at month {m}");
        let cluster = tco.cluster_capex_usd + tco.cluster_opex_usd_per_month * m as f64;
        assert!(cluster <= tco.cloud_usd_per_month * m as f64);
    }

    #[test]
    fn light_usage_may_never_cross() {
        let tco = TcoComparison::compute(
            specs::LITTLEFE_COST_USD,
            300.0,
            &CloudOffering::aws_2015(),
            6,
            2.0, // two hours a month
            24,
        );
        assert!(tco.crossover_months.is_none(), "{tco:?}");
    }

    #[test]
    fn bom_line_math() {
        let l = BomLine {
            item: "x".into(),
            unit_usd: 10.0,
            quantity: 6,
        };
        assert_eq!(l.total(), 60.0);
        let bom = Bom::new("s").line("a", 1.5, 2).line("b", 7.0, 1);
        assert_eq!(bom.total_usd(), 10.0);
        assert_eq!(bom.usd_per_gflops_rounded(5.0), 2);
    }
}

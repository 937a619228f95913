//! Kickstart profile generation.
//!
//! Rocks turns the graph traversal for a host into an anaconda kickstart:
//! partitioning, package list, %post scripts. The hard constraint the
//! paper leans on: **"Rocks does not support diskless installation"** —
//! profile generation fails for a diskless node, which is exactly why the
//! modified LittleFe adds a Crucial mSATA drive per node.

use crate::graph::{Appliance, GraphError, KickstartGraph};
use xcbc_cluster::NodeSpec;

/// One partition line.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    pub mount: String,
    pub size_mb: u64,
    pub grow: bool,
}

/// A generated kickstart profile for one node.
#[derive(Debug, Clone)]
pub struct KickstartProfile {
    pub hostname: String,
    pub appliance: Appliance,
    pub partitions: Vec<Partition>,
    pub packages: Vec<String>,
    pub post_scripts: Vec<String>,
    /// Estimated install payload in bytes.
    pub payload_bytes: u64,
}

/// Why profile generation failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum KickstartError {
    /// Rocks cannot install a diskless node.
    DisklessUnsupported { hostname: String },
    /// The node's disk cannot hold the payload plus the standard layout.
    InsufficientDisk {
        hostname: String,
        need_gb: f64,
        have_gb: u32,
    },
    /// Graph traversal failed.
    Graph(GraphError),
}

impl std::fmt::Display for KickstartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KickstartError::DisklessUnsupported { hostname } => write!(
                f,
                "{hostname}: Rocks does not support diskless installation"
            ),
            KickstartError::InsufficientDisk {
                hostname,
                need_gb,
                have_gb,
            } => write!(
                f,
                "{hostname}: needs {need_gb:.1} GB but only {have_gb} GB of disk present"
            ),
            KickstartError::Graph(e) => write!(f, "graph traversal failed: {e}"),
        }
    }
}

impl std::error::Error for KickstartError {}

impl From<GraphError> for KickstartError {
    fn from(e: GraphError) -> Self {
        KickstartError::Graph(e)
    }
}

/// Bytes-per-package estimate when the graph only carries names
/// (25 MB — the CentOS 6 mean).
const EST_PACKAGE_BYTES: u64 = 25 << 20;

/// Disk layout Rocks uses: /boot, swap, /, /var, rest to /export
/// (frontend) or /state/partition1 (compute).
fn standard_partitions(appliance: Appliance) -> Vec<Partition> {
    let mut parts = vec![
        Partition {
            mount: "/boot".into(),
            size_mb: 500,
            grow: false,
        },
        Partition {
            mount: "swap".into(),
            size_mb: 1024,
            grow: false,
        },
        Partition {
            mount: "/".into(),
            size_mb: 16 << 10,
            grow: false,
        },
        Partition {
            mount: "/var".into(),
            size_mb: 4 << 10,
            grow: false,
        },
    ];
    parts.push(match appliance {
        Appliance::Frontend => Partition {
            mount: "/export".into(),
            size_mb: 0,
            grow: true,
        },
        _ => Partition {
            mount: "/state/partition1".into(),
            size_mb: 0,
            grow: true,
        },
    });
    parts
}

/// Generate the kickstart for one node.
pub fn generate(
    graph: &KickstartGraph,
    node: &NodeSpec,
    appliance: Appliance,
) -> Result<KickstartProfile, KickstartError> {
    if node.is_diskless() {
        return Err(KickstartError::DisklessUnsupported {
            hostname: node.hostname.clone(),
        });
    }
    let packages = graph.packages_for(appliance)?;
    let post_scripts = graph.post_scripts_for(appliance)?;
    let partitions = standard_partitions(appliance);
    let payload_bytes = packages.len() as u64 * EST_PACKAGE_BYTES;

    let fixed_mb: u64 = partitions.iter().map(|p| p.size_mb).sum();
    let need_gb = fixed_mb as f64 / 1024.0 + payload_bytes as f64 / (1 << 30) as f64;
    let have_gb = node.disk_capacity_gb();
    if need_gb > have_gb as f64 {
        return Err(KickstartError::InsufficientDisk {
            hostname: node.hostname.clone(),
            need_gb,
            have_gb,
        });
    }

    Ok(KickstartProfile {
        hostname: node.hostname.clone(),
        appliance,
        partitions,
        packages,
        post_scripts,
        payload_bytes,
    })
}

impl KickstartProfile {
    /// Render in kickstart syntax (abridged).
    pub fn render(&self) -> String {
        let mut out = format!(
            "# kickstart for {} ({})\n",
            self.hostname,
            self.appliance.label()
        );
        out.push_str("install\ntext\nreboot\n\n# partitioning\nclearpart --all\n");
        for p in &self.partitions {
            if p.grow {
                out.push_str(&format!("part {} --size=1 --grow\n", p.mount));
            } else {
                out.push_str(&format!("part {} --size={}\n", p.mount, p.size_mb));
            }
        }
        out.push_str("\n%packages\n");
        for pkg in &self.packages {
            out.push_str(&format!("{pkg}\n"));
        }
        out.push_str("%end\n\n%post\n");
        for s in &self.post_scripts {
            out.push_str(&format!("# {s}\n"));
        }
        out.push_str("%end\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcbc_cluster::specs::{limulus_hpc200, littlefe_modified, littlefe_v4};

    #[test]
    fn modified_littlefe_nodes_generate() {
        let g = KickstartGraph::standard();
        let c = littlefe_modified();
        for (i, n) in c.nodes.iter().enumerate() {
            let appliance = if i == 0 {
                Appliance::Frontend
            } else {
                Appliance::Compute
            };
            let ks = generate(&g, n, appliance).unwrap();
            assert!(!ks.packages.is_empty());
            assert_eq!(ks.partitions.len(), 5);
        }
    }

    #[test]
    fn diskless_limulus_blade_rejected() {
        let g = KickstartGraph::standard();
        let c = limulus_hpc200();
        let blade = c.compute_nodes().next().unwrap();
        let err = generate(&g, blade, Appliance::Compute).unwrap_err();
        assert!(matches!(err, KickstartError::DisklessUnsupported { .. }));
        assert!(err.to_string().contains("diskless"));
    }

    #[test]
    fn diskless_v4_littlefe_rejected() {
        let g = KickstartGraph::standard();
        let c = littlefe_v4();
        let node = c.compute_nodes().next().unwrap();
        assert!(generate(&g, node, Appliance::Compute).is_err());
    }

    #[test]
    fn frontend_partitions_export_computes_state() {
        let g = KickstartGraph::standard();
        let c = littlefe_modified();
        let fe = generate(&g, c.frontend().unwrap(), Appliance::Frontend).unwrap();
        assert!(fe.partitions.iter().any(|p| p.mount == "/export" && p.grow));
        let co = generate(&g, c.compute_nodes().next().unwrap(), Appliance::Compute).unwrap();
        assert!(co
            .partitions
            .iter()
            .any(|p| p.mount == "/state/partition1" && p.grow));
    }

    #[test]
    fn insufficient_disk_detected() {
        let g = KickstartGraph::standard();
        let tiny_disk = xcbc_cluster::hw::DiskDrive {
            name: "tiny",
            kind: xcbc_cluster::hw::DiskKind::MSata,
            capacity_gb: 8,
            watts: 1.0,
            needs_bay: false,
        };
        let node = xcbc_cluster::NodeSpec::new("n0", xcbc_cluster::NodeRole::Compute)
            .disk(tiny_disk)
            .build();
        let err = generate(&g, &node, Appliance::Compute).unwrap_err();
        assert!(matches!(err, KickstartError::InsufficientDisk { .. }));
    }

    #[test]
    fn render_contains_sections() {
        let g = KickstartGraph::standard();
        let c = littlefe_modified();
        let ks = generate(&g, c.frontend().unwrap(), Appliance::Frontend).unwrap();
        let text = ks.render();
        assert!(text.contains("%packages"));
        assert!(text.contains("%post"));
        assert!(text.contains("part /export --size=1 --grow"));
        assert!(text.contains("rocks-base"));
    }
}

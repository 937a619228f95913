//! Kickstart profile generation.
//!
//! Rocks turns the graph traversal for a host into an anaconda kickstart:
//! partitioning, package list, %post scripts. The hard constraint the
//! paper leans on: **"Rocks does not support diskless installation"** —
//! profile generation fails for a diskless node, which is exactly why the
//! modified LittleFe adds a Crucial mSATA drive per node.

use crate::graph::{Appliance, GraphError};
use crate::media::{ApplianceWalk, InstallMedia};
use xcbc_cluster::NodeSpec;

/// One partition line.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    pub mount: &'static str,
    pub size_mb: u64,
    pub grow: bool,
}

/// A generated kickstart profile for one node. Its package list and
/// %post scripts are its appliance's walk on the media.
#[derive(Debug, Clone)]
pub struct KickstartProfile<'m> {
    pub hostname: String,
    pub appliance: Appliance,
    pub partitions: Vec<Partition>,
    pub walk: &'m ApplianceWalk,
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
    let part = |mount, size_mb| Partition {
        mount,
        size_mb,
        grow: false,
    };
    let rest = match appliance {
        Appliance::Frontend => "/export",
        _ => "/state/partition1",
    };
    vec![
        part("/boot", 500),
        part("swap", 1024),
        part("/", 16 << 10),
        part("/var", 4 << 10),
        Partition {
            grow: true,
            ..part(rest, 0)
        },
    ]
}

/// Generate the kickstart for one node from `media`. The node's checks
/// run in Rocks' order: a diskless node is refused first, then a graph
/// that cannot be walked, then a disk too small for the payload.
pub fn generate<'m>(
    media: &'m InstallMedia,
    node: &NodeSpec,
    appliance: Appliance,
) -> Result<KickstartProfile<'m>, KickstartError> {
    if node.is_diskless() {
        return Err(KickstartError::DisklessUnsupported {
            hostname: node.hostname.clone(),
        });
    }
    let walk = media.walk(appliance).map_err(|e| e.clone())?;
    let partitions = standard_partitions(appliance);
    let payload_bytes = walk.packages.len() as u64 * EST_PACKAGE_BYTES;

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
        walk,
        payload_bytes,
    })
}

impl KickstartProfile<'_> {
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
        for pkg in &self.walk.packages {
            out.push_str(&format!("{pkg}\n"));
        }
        out.push_str("%end\n\n%post\n");
        for s in &self.walk.post_scripts {
            out.push_str(&format!("# {s}\n"));
        }
        out.push_str("%end\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roll::standard_rolls;
    use xcbc_cluster::specs::{limulus_hpc200, littlefe_modified, littlefe_v4};

    fn media() -> InstallMedia {
        InstallMedia::new(standard_rolls())
    }

    #[test]
    fn modified_littlefe_nodes_generate() {
        let g = media();
        let c = littlefe_modified();
        for (i, n) in c.nodes.iter().enumerate() {
            let appliance = if i == 0 {
                Appliance::Frontend
            } else {
                Appliance::Compute
            };
            let ks = generate(&g, n, appliance).unwrap();
            assert!(!ks.walk.packages.is_empty());
            assert_eq!(ks.partitions.len(), 5);
        }
    }

    #[test]
    fn diskless_limulus_blade_rejected() {
        let g = media();
        let c = limulus_hpc200();
        let blade = c.compute_nodes().next().unwrap();
        let err = generate(&g, blade, Appliance::Compute).unwrap_err();
        assert!(matches!(err, KickstartError::DisklessUnsupported { .. }));
        assert!(err.to_string().contains("diskless"));
    }

    #[test]
    fn diskless_v4_littlefe_rejected() {
        let g = media();
        let c = littlefe_v4();
        let node = c.compute_nodes().next().unwrap();
        assert!(generate(&g, node, Appliance::Compute).is_err());
    }

    #[test]
    fn frontend_partitions_export_computes_state() {
        let g = media();
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
        let g = media();
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
    fn a_diskless_node_is_refused_before_its_disk_is_sized() {
        // no disk at all is also too small a disk: the diskless refusal
        // comes first, as it did before the walk moved to the media
        let g = media();
        let diskless = xcbc_cluster::NodeSpec::new("n0", xcbc_cluster::NodeRole::Compute).build();
        assert!(diskless.is_diskless());
        assert!(matches!(
            generate(&g, &diskless, Appliance::Compute),
            Err(KickstartError::DisklessUnsupported { .. })
        ));
    }

    #[test]
    fn nodes_of_one_appliance_share_its_walk() {
        let g = media();
        let c = littlefe_modified();
        let mut computes = c.compute_nodes();
        let (a, b) = (computes.next().unwrap(), computes.next().unwrap());
        let (a, b) = (
            generate(&g, a, Appliance::Compute).unwrap(),
            generate(&g, b, Appliance::Compute).unwrap(),
        );
        assert_ne!(a.hostname, b.hostname);
        assert!(std::ptr::eq(a.walk, b.walk));
        assert!(std::ptr::eq(a.walk, g.walk(Appliance::Compute).unwrap()));
    }

    #[test]
    fn render_contains_sections() {
        let g = media();
        let c = littlefe_modified();
        let ks = generate(&g, c.frontend().unwrap(), Appliance::Frontend).unwrap();
        let text = ks.render();
        assert!(text.contains("%packages"));
        assert!(text.contains("%post"));
        assert!(text.contains("part /export --size=1 --grow"));
        assert!(text.contains("rocks-base"));
    }
}

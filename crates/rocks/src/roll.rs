//! Rolls: Rocks' unit of software distribution.
//!
//! A Roll bundles packages with kickstart-graph fragments. Table 1 of the
//! paper lists the optional rolls the XCBC 0.9 build draws on; the
//! XSEDE-specific roll itself is defined in `xcbc-core::roll` on top of
//! this type.

use crate::graph::GraphNode;
use std::sync::Arc;
use xcbc_rpm::{Package, PackageBuilder, PackageGroup};

/// A Rocks Roll.
#[derive(Debug, Clone)]
pub struct Roll {
    pub name: String,
    pub version: String,
    pub arch: String,
    /// Required rolls must be present for any install (base/kernel/os).
    pub required: bool,
    /// One-line description (the Table 1 "Specific packages" column).
    pub description: String,
    /// Shared with every node transaction that installs them.
    pub packages: Vec<Arc<Package>>,
    /// Kickstart graph fragments this roll contributes.
    pub graph_nodes: Vec<GraphNode>,
}

impl Roll {
    pub fn new(name: &str, version: &str, required: bool, description: &str) -> Self {
        Roll {
            name: name.to_string(),
            version: version.to_string(),
            arch: "x86_64".to_string(),
            required,
            description: description.to_string(),
            packages: Vec::new(),
            graph_nodes: Vec::new(),
        }
    }

    pub fn with_packages(mut self, pkgs: Vec<Package>) -> Self {
        self.packages = pkgs.into_iter().map(Arc::new).collect();
        self
    }

    pub fn with_graph_nodes(mut self, nodes: Vec<GraphNode>) -> Self {
        self.graph_nodes = nodes;
        self
    }

    /// Total payload bytes.
    pub fn size_bytes(&self) -> u64 {
        self.packages.iter().map(|p| p.size_bytes).sum()
    }
}

fn pkg(name: &str, version: &str, group: PackageGroup, mb: u64) -> Package {
    PackageBuilder::new(name, version, "1.el6")
        .group(group)
        .size_mb(mb)
        .build()
}

/// The Rocks 6.1.1 roll set the paper's Table 1 draws on: the required
/// base/kernel/os rolls plus the optional rolls XCBC includes.
pub fn standard_rolls() -> Vec<Roll> {
    use PackageGroup::*;
    vec![
        Roll::new(
            "base",
            "6.1.1",
            true,
            "Rocks core: command line, insert-ethers, 411",
        )
        .with_packages(vec![
            pkg("rocks-base", "6.1.1", Basics, 50),
            pkg("rocks-command", "6.1.1", Basics, 10),
            pkg("rocks-411", "6.1.1", Basics, 5),
        ]),
        Roll::new(
            "kernel",
            "6.1.1",
            true,
            "Installer kernel and anaconda hooks",
        )
        .with_packages(vec![pkg("rocks-installer-kernel", "2.6.32", Basics, 120)]),
        Roll::new("os", "6.1.1", true, "CentOS 6.5 base operating system").with_packages(vec![
            pkg("centos-release", "6.5", Basics, 1),
            pkg("bash", "4.1.2", Basics, 3),
            pkg("coreutils", "8.4", Basics, 12),
            pkg("glibc", "2.12", Basics, 25),
            pkg("openssh-server", "5.3p1", Basics, 2),
            pkg("rsync", "3.0.6", Basics, 1),
            pkg("modules", "3.2.10", Basics, 2),
            pkg("apache-ant", "1.7.1", Basics, 15),
            pkg("gmake", "3.81", Basics, 2),
            pkg("scons", "2.0.1", Basics, 3),
        ]),
        Roll::new(
            "area51",
            "6.1.1",
            false,
            "Security-related packages for analyzing the integrity of files and the kernel",
        )
        .with_packages(vec![
            pkg("tripwire", "2.4.2", Security, 5),
            pkg("chkrootkit", "0.49", Security, 1),
        ]),
        Roll::new("bio", "6.1.1", false, "Bioinformatics utilities").with_packages(vec![
            pkg("hmmer-rocks", "3.0", ScientificApplications, 20),
            pkg("ncbi-blast-rocks", "2.2.22", ScientificApplications, 80),
        ]),
        Roll::new(
            "fingerprint",
            "6.1.1",
            false,
            "Fingerprint application dependencies",
        )
        .with_packages(vec![pkg("fingerprint", "1.0", Other, 3)]),
        Roll::new(
            "htcondor",
            "6.1.1",
            false,
            "HTCondor high-throughput computing workload management system",
        )
        .with_packages(vec![pkg("condor", "8.0.6", SchedulerResourceManager, 90)]),
        Roll::new("ganglia", "6.1.1", false, "Cluster monitoring system").with_packages(vec![
            pkg("ganglia-gmond", "3.6.0", Monitoring, 2),
            pkg("ganglia-gmetad", "3.6.0", Monitoring, 3),
            pkg("ganglia-web", "3.5.12", Monitoring, 8),
        ]),
        Roll::new(
            "hpc",
            "6.1.1",
            false,
            "Tools for running parallel applications",
        )
        .with_packages(vec![
            pkg("rocks-openmpi", "1.6.2", CompilersLibraries, 40),
            pkg("mpich2-rocks", "1.4.1", CompilersLibraries, 35),
            pkg("benchmarks-hpc", "6.1.1", Other, 15),
        ]),
        Roll::new(
            "kvm",
            "6.1.1",
            false,
            "Support for building KVM virtual machines on cluster nodes",
        )
        .with_packages(vec![pkg("qemu-kvm", "0.12.1.2", Other, 25)]),
        Roll::new(
            "perl",
            "6.1.1",
            false,
            "Perl RPM, CPAN support utilities, and various CPAN modules",
        )
        .with_packages(vec![
            pkg("rocks-perl", "5.10.1", CompilersLibraries, 30),
            pkg("perl-CPAN", "1.9402", CompilersLibraries, 5),
        ]),
        Roll::new("python", "6.1.1", false, "Python 2.7 and Python 3.x").with_packages(vec![
            pkg("python27", "2.7.2", CompilersLibraries, 60),
            pkg("python3", "3.2.3", CompilersLibraries, 65),
        ]),
        Roll::new(
            "web-server",
            "6.1.1",
            true,
            "Rocks web server roll (required for the frontend installer tree)",
        )
        .with_packages(vec![
            pkg("httpd", "2.2.15", Other, 4),
            pkg("rocks-webserver", "6.1.1", Other, 6),
        ]),
        Roll::new(
            "zfs-linux",
            "6.1.1",
            false,
            "Zetabyte File System (ZFS) drivers for Linux",
        )
        .with_packages(vec![pkg("zfs", "0.6.2", Other, 30)]),
    ]
}

/// Names of the optional rolls from Table 1, for coverage checks.
pub const TABLE1_OPTIONAL_ROLLS: [&str; 10] = [
    "area51",
    "bio",
    "fingerprint",
    "htcondor",
    "ganglia",
    "hpc",
    "kvm",
    "perl",
    "python",
    "zfs-linux",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_set_contains_required_rolls() {
        let rolls = standard_rolls();
        let required: Vec<_> = rolls
            .iter()
            .filter(|r| r.required)
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(required, vec!["base", "kernel", "os", "web-server"]);
    }

    #[test]
    fn all_table1_optional_rolls_present() {
        let rolls = standard_rolls();
        for name in TABLE1_OPTIONAL_ROLLS {
            let roll = rolls.iter().find(|r| r.name == name);
            assert!(roll.is_some(), "missing roll {name}");
            assert!(!roll.unwrap().required);
            assert!(
                !roll.unwrap().packages.is_empty(),
                "roll {name} must carry packages"
            );
        }
        // web-server is in Table 1 but required for the frontend tree
        assert!(rolls.iter().any(|r| r.name == "web-server" && r.required));
    }

    #[test]
    fn roll_sizes_positive() {
        for r in standard_rolls() {
            assert!(r.size_bytes() > 0, "{} has zero size", r.name);
        }
    }

    #[test]
    fn version_matches_rocks_611() {
        // "Basics: Rocks 6.1.1, Centos 6.5"
        for r in standard_rolls() {
            assert_eq!(r.version, "6.1.1");
        }
        let os = standard_rolls()
            .into_iter()
            .find(|r| r.name == "os")
            .unwrap();
        assert!(os
            .packages
            .iter()
            .any(|p| p.name() == "centos-release" && p.evr().version == "6.5"));
    }
}

//! The XSEDE Rocks Roll — XCBC's from-scratch delivery vehicle.
//!
//! §2: "There have been two major XSEDE Rocks Rolls released since the
//! 2014 report. Version 0.0.8 saw a major OS release update from Centos
//! 6.3 to 6.5 and 27 scientific and supporting packages have been added,
//! including GenomeAnalysisTK, gromacs, mpiblast, and others. The 0.0.9
//! release from November 2014 saw 41 additions, including TrinityRNASeq,
//! R, significant Java updates ..."

use crate::catalog::{xcbc_catalog, CATALOG};
use std::sync::{Arc, OnceLock};
use xcbc_rocks::{standard_rolls, GraphNode, InstallMedia, Roll};

/// One release of the XSEDE roll.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollRelease {
    pub version: &'static str,
    pub date: &'static str,
    pub base_os: &'static str,
    /// Packages newly added in this release (subset of the catalog).
    pub additions: &'static [&'static str],
    pub notes: &'static str,
}

/// The release history the paper describes.
pub static XSEDE_ROLL_RELEASES: &[RollRelease] = &[
    RollRelease {
        version: "0.0.7",
        date: "2014-03",
        base_os: "CentOS 6.3",
        additions: &[
            "gcc",
            "gcc-gfortran",
            "openmpi",
            "mpich2",
            "torque",
            "maui",
            "python",
            "tcl",
            "fftw",
            "fftw2",
            "hdf5",
            "atlas",
            "boost",
            "netcdf",
            "numpy",
            "valgrind",
            "globus-connect-server",
            "genesis2",
            "gffs",
        ],
        notes: "baseline XCBC roll (XSEDE14 report)",
    },
    RollRelease {
        version: "0.0.8",
        date: "2014-07",
        base_os: "CentOS 6.5",
        additions: &[
            // "27 scientific and supporting packages have been added,
            // including GenomeAnalysisTK, gromacs, mpiblast, and others"
            "gatk",
            "gromacs",
            "gromacs-common",
            "gromacs-libs",
            "mpiblast",
            "ncbi-blast",
            "lammps",
            "lammps-common",
            "bedtools",
            "bowtie",
            "bwa",
            "samtools",
            "hmmer",
            "abyss",
            "sparsehash-devel",
            "libgtextutils",
            "shrimp",
            "sratoolkit",
            "arpack",
            "glpk",
            "gnuplot",
            "gnuplot-common",
            "gd",
            "libXpm",
            "octave",
            "petsc",
            "slepc",
        ],
        notes: "major OS update Centos 6.3 -> 6.5; 27 additions",
    },
    RollRelease {
        version: "0.0.9",
        date: "2014-11",
        base_os: "CentOS 6.5",
        additions: &[
            // "41 additions, including TrinityRNASeq, R, significant
            // Java updates, and other scientific and supporting packages"
            "trinity",
            "R",
            "R-core",
            "R-core-devel",
            "R-devel",
            "R-java",
            "R-java-devel",
            "libRmath",
            "libRmath-devel",
            "java-1.7.0-openjdk",
            "tzdata-java",
            "jpackage-utils",
            "jline",
            "rhino",
            "ant",
            "picard-tools",
            "autodocksuite",
            "mrbayes",
            "meep",
            "espresso-ab",
            "elemental",
            "plapack",
            "pnetcdf",
            "GotoBLAS2",
            "scalapack-common",
            "darshan-runtime-mpich",
            "darshan-runtime-openmpi",
            "darshan-util",
            "ncl",
            "ncl-common",
            "nco",
            "plplot",
            "saga",
            "sundials",
            "sprng",
            "lua",
            "libmspack",
            "wxBase3",
            "wxGTK3",
            "papi",
            "numactl",
        ],
        notes: "November 2014; 41 additions",
    },
];

/// The XCBC install media: Rocks 6.1.1's rolls plus the XSEDE roll,
/// the paper's Table 1 roll set. Every from-scratch deploy installs from
/// it. It is constant input, not a store of results, so it is built once
/// per process, like [`limulus_factory_image`]; each call returns the one
/// shared media.
///
/// [`limulus_factory_image`]: crate::deploy::limulus_factory_image
pub fn xcbc_install_media() -> Arc<InstallMedia> {
    static MEDIA: OnceLock<Arc<InstallMedia>> = OnceLock::new();
    let media = MEDIA.get_or_init(|| {
        let mut rolls = standard_rolls();
        rolls.push(xsede_roll());
        Arc::new(InstallMedia::new(rolls))
    });
    Arc::clone(media)
}

/// Build the current (0.9) XSEDE roll: the full catalog as packages,
/// with kickstart-graph nodes wiring every category onto frontend and
/// compute appliances.
pub fn xsede_roll() -> Roll {
    let packages = xcbc_catalog();
    let mut sci = GraphNode::new("xsede-scientific");
    let mut compilers = GraphNode::new("xsede-compilers");
    let mut misc = GraphNode::new("xsede-misc");
    let mut sched = GraphNode::new("xsede-scheduler");
    let mut tools = GraphNode::new("xsede-tools");
    for entry in CATALOG {
        use xcbc_rpm::PackageGroup::*;
        let node = match entry.group {
            ScientificApplications => &mut sci,
            CompilersLibraries => &mut compilers,
            MiscellaneousTools => &mut misc,
            SchedulerResourceManager => {
                // XCBC: "Torque, SLURM, sge (choose one)" — the roll
                // defaults to torque+maui; slurm/sge stay in the repo.
                if entry.name == "torque" || entry.name == "maui" {
                    &mut sched
                } else {
                    continue;
                }
            }
            XsedeTools => &mut tools,
            _ => continue,
        };
        node.packages.push(entry.name.to_string());
    }
    sched
        .post_scripts
        .push("configure pbs_server + maui on frontend".to_string());
    tools
        .post_scripts
        .push("run globus-connect-server-setup".to_string());

    Roll::new("xsede", "0.9", false, "XSEDE-compatible basic cluster roll")
        .with_packages(packages)
        .with_graph_nodes(vec![sci, compilers, misc, sched, tools])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::entry;
    use xcbc_rocks::{Appliance, ClusterInstall};

    #[test]
    fn release_history_matches_paper_counts() {
        let v8 = &XSEDE_ROLL_RELEASES[1];
        assert_eq!(v8.version, "0.0.8");
        assert_eq!(v8.additions.len(), 27, "paper: 27 packages added in 0.0.8");
        assert_eq!(v8.base_os, "CentOS 6.5");
        let v9 = &XSEDE_ROLL_RELEASES[2];
        assert_eq!(v9.version, "0.0.9");
        assert_eq!(v9.additions.len(), 41, "paper: 41 additions in 0.0.9");
        assert_eq!(v9.date, "2014-11");
    }

    #[test]
    fn paper_named_additions_in_right_release() {
        let v8 = &XSEDE_ROLL_RELEASES[1];
        for name in ["gatk", "gromacs", "mpiblast"] {
            assert!(v8.additions.contains(&name), "{name} arrived in 0.0.8");
        }
        let v9 = &XSEDE_ROLL_RELEASES[2];
        for name in ["trinity", "R", "java-1.7.0-openjdk"] {
            assert!(v9.additions.contains(&name), "{name} arrived in 0.0.9");
        }
    }

    #[test]
    fn all_additions_exist_in_catalog() {
        for rel in XSEDE_ROLL_RELEASES {
            for name in rel.additions {
                assert!(
                    entry(name).is_some(),
                    "release {} adds unknown {name}",
                    rel.version
                );
            }
        }
    }

    #[test]
    fn no_package_added_twice_across_releases() {
        let mut seen = std::collections::HashSet::new();
        for rel in XSEDE_ROLL_RELEASES {
            for name in rel.additions {
                assert!(seen.insert(*name), "{name} added in two releases");
            }
        }
    }

    #[test]
    fn roll_carries_full_catalog() {
        let roll = xsede_roll();
        assert_eq!(roll.name, "xsede");
        assert_eq!(roll.packages.len(), CATALOG.len());
        assert_eq!(roll.graph_nodes.len(), 5);
    }

    #[test]
    fn roll_installs_onto_littlefe() {
        // the paper's headline workflow: Rocks + XSEDE roll on the
        // modified LittleFe
        let mut rolls = xcbc_rocks::standard_rolls();
        rolls.push(xsede_roll());
        let install = ClusterInstall::new(xcbc_cluster::specs::littlefe_modified(), rolls);
        let report = install.run().unwrap();
        for host in ["littlefe", "compute-0-0", "compute-0-4"] {
            let db = &report.node_dbs[host];
            assert!(db.is_installed("gromacs"), "{host} gets gromacs");
            assert!(db.is_installed("torque"), "{host} gets torque");
            assert!(
                db.is_installed("globus-connect-server"),
                "{host} gets globus"
            );
            assert!(db.verify().is_empty(), "{host} verifies clean");
        }
    }

    #[test]
    fn roll_graph_attaches_to_both_appliances() {
        let mut graph = xcbc_rocks::KickstartGraph::standard();
        graph
            .merge_roll_nodes(
                &xsede_roll().graph_nodes,
                &[Appliance::Frontend, Appliance::Compute],
            )
            .unwrap();
        let fe = graph.packages_for(Appliance::Frontend).unwrap();
        let co = graph.packages_for(Appliance::Compute).unwrap();
        for p in ["gromacs", "maui", "gffs"] {
            assert!(fe.contains(&p.to_string()));
            assert!(co.contains(&p.to_string()));
        }
    }

    #[test]
    fn slurm_and_sge_not_in_default_graph() {
        let roll = xsede_roll();
        let sched_node = roll
            .graph_nodes
            .iter()
            .find(|n| n.name == "xsede-scheduler")
            .unwrap();
        assert!(sched_node.packages.contains(&"torque".to_string()));
        assert!(
            !sched_node.packages.contains(&"slurm".to_string()),
            "choose-one default"
        );
        // but slurm IS in the roll's package payload for swapping later
        assert!(roll.packages.iter().any(|p| p.name() == "slurm"));
    }
}

//! Campus-bridging data movement: Globus Connect Server and the GFFS.
//!
//! The XSEDE Tools row of Table 2 exists so that "a researcher \[can\]
//! move from an XCBC- or XNIT-based campus cluster to an XSEDE-supported
//! resource". The concrete mechanism is a Globus endpoint on the campus
//! cluster plus the Global Federated File System. This module models
//! endpoint setup (which requires the packages to be installed), a
//! transfer with per-file integrity verification and fault retry, and a
//! GFFS mount namespace.

use xcbc_rpm::RpmDb;

/// A Globus endpoint bound to one cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Endpoint {
    pub name: String,
    /// Effective WAN bandwidth, MB/s.
    pub wan_mb_s: f64,
}

/// Why endpoint setup failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetupError {
    /// `globus-connect-server` is not installed on the host.
    MissingPackage(String),
}

impl std::fmt::Display for SetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SetupError::MissingPackage(p) => {
                write!(
                    f,
                    "endpoint setup requires the {p} package (install it from XNIT)"
                )
            }
        }
    }
}

/// `globus-connect-server-setup`: requires the package from the XSEDE
/// tools row.
pub fn setup_endpoint(name: &str, db: &RpmDb, wan_mb_s: f64) -> Result<Endpoint, SetupError> {
    if !db.is_installed("globus-connect-server") {
        return Err(SetupError::MissingPackage(
            "globus-connect-server".to_string(),
        ));
    }
    Ok(Endpoint {
        name: name.to_string(),
        wan_mb_s,
    })
}

/// One file in a transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferFile {
    pub path: String,
    pub bytes: u64,
}

/// A completed transfer's report.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferReport {
    pub source: String,
    pub destination: String,
    pub files: usize,
    pub bytes: u64,
    pub seconds: f64,
    /// Files that needed integrity-retry (fault injection).
    pub retried: Vec<String>,
    pub verified: bool,
}

/// Transfer files between endpoints. `corrupted` lists paths whose first
/// attempt fails checksum verification and is retried (Globus semantics:
/// per-file checksums, automatic retry).
pub fn transfer(
    source: &Endpoint,
    destination: &Endpoint,
    files: &[TransferFile],
    corrupted: &[&str],
) -> TransferReport {
    let link_mb_s = source.wan_mb_s.min(destination.wan_mb_s);
    let total_bytes: u64 = files.iter().map(|f| f.bytes).sum();
    let retry_bytes: u64 = files
        .iter()
        .filter(|f| corrupted.contains(&f.path.as_str()))
        .map(|f| f.bytes)
        .sum();
    let seconds = (total_bytes + retry_bytes) as f64 / (link_mb_s * 1024.0 * 1024.0);
    TransferReport {
        source: source.name.clone(),
        destination: destination.name.clone(),
        files: files.len(),
        bytes: total_bytes,
        seconds,
        retried: corrupted.iter().map(|s| s.to_string()).collect(),
        verified: true, // retry loop runs until checksums match
    }
}

/// A GFFS namespace: global paths mapped to (endpoint, local path).
#[derive(Debug, Default)]
pub struct GffsNamespace {
    mounts: Vec<(String, String, String)>, // (global prefix, endpoint, local path)
}

impl GffsNamespace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Export a local directory at a global path.
    pub fn export(&mut self, global: &str, endpoint: &str, local: &str) {
        self.mounts
            .push((global.to_string(), endpoint.to_string(), local.to_string()));
    }

    /// Resolve a global path to (endpoint, local path).
    pub fn resolve(&self, global: &str) -> Option<(String, String)> {
        // longest-prefix match, the way mounts resolve
        self.mounts
            .iter()
            .filter(|(prefix, _, _)| global.starts_with(prefix.as_str()))
            .max_by_key(|(prefix, _, _)| prefix.len())
            .map(|(prefix, ep, local)| (ep.clone(), format!("{local}{}", &global[prefix.len()..])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xnit::{enable_xnit, XnitSetupMethod};
    use xcbc_yum::{Yum, YumConfig};

    fn cluster_with_globus() -> RpmDb {
        let mut db = RpmDb::new();
        let mut yum = Yum::new(YumConfig::default());
        enable_xnit(&mut yum, &mut db, XnitSetupMethod::RepoRpm).unwrap();
        yum.install(&mut db, &["globus-connect-server"]).unwrap();
        db
    }

    #[test]
    fn endpoint_needs_the_xnit_package() {
        let bare = RpmDb::new();
        let err = setup_endpoint("campus#littlefe", &bare, 100.0).unwrap_err();
        assert!(err.to_string().contains("globus-connect-server"));

        let db = cluster_with_globus();
        let ep = setup_endpoint("campus#littlefe", &db, 100.0).unwrap();
        assert_eq!(ep.name, "campus#littlefe");
    }

    #[test]
    fn transfer_time_is_bottleneck_bound() {
        let campus = Endpoint {
            name: "campus#littlefe".into(),
            wan_mb_s: 50.0,
        };
        let stampede = Endpoint {
            name: "xsede#stampede".into(),
            wan_mb_s: 1000.0,
        };
        let files = vec![TransferFile {
            path: "/data/run1.nc".into(),
            bytes: 500 << 20,
        }];
        let report = transfer(&campus, &stampede, &files, &[]);
        assert!(
            (report.seconds - 10.0).abs() < 1e-9,
            "500MB at 50MB/s: {}",
            report.seconds
        );
        assert!(report.verified);
        assert!(report.retried.is_empty());
    }

    #[test]
    fn corrupted_files_retried_and_verified() {
        let a = Endpoint {
            name: "a".into(),
            wan_mb_s: 100.0,
        };
        let b = Endpoint {
            name: "b".into(),
            wan_mb_s: 100.0,
        };
        let files = vec![
            TransferFile {
                path: "/data/x".into(),
                bytes: 100 << 20,
            },
            TransferFile {
                path: "/data/y".into(),
                bytes: 100 << 20,
            },
        ];
        let clean = transfer(&a, &b, &files, &[]);
        let faulty = transfer(&a, &b, &files, &["/data/y"]);
        assert!(faulty.seconds > clean.seconds, "retry costs a re-send");
        assert_eq!(faulty.retried, vec!["/data/y"]);
        assert!(faulty.verified);
    }

    #[test]
    fn gffs_longest_prefix_resolution() {
        let mut ns = GffsNamespace::new();
        ns.export("/xsede/campus/iu", "campus#littlefe", "/export/data");
        ns.export(
            "/xsede/campus/iu/scratch",
            "campus#littlefe-scratch",
            "/scratch",
        );
        let (ep, local) = ns.resolve("/xsede/campus/iu/results/run1.nc").unwrap();
        assert_eq!(ep, "campus#littlefe");
        assert_eq!(local, "/export/data/results/run1.nc");
        let (ep, local) = ns.resolve("/xsede/campus/iu/scratch/tmp.bin").unwrap();
        assert_eq!(ep, "campus#littlefe-scratch");
        assert_eq!(local, "/scratch/tmp.bin");
        assert!(ns.resolve("/unmapped/path").is_none());
    }

    #[test]
    fn end_to_end_campus_to_xsede() {
        // the paper's migration story: set up the endpoint with XNIT
        // software, export via GFFS, move the data
        let db = cluster_with_globus();
        let campus = setup_endpoint("campus#littlefe", &db, 80.0).unwrap();
        let xsede = Endpoint {
            name: "xsede#stampede".into(),
            wan_mb_s: 800.0,
        };
        let mut ns = GffsNamespace::new();
        ns.export("/xsede/campus/iu", &campus.name, "/export/data");
        let (ep, _) = ns.resolve("/xsede/campus/iu/thesis").unwrap();
        assert_eq!(ep, campus.name);
        let report = transfer(
            &campus,
            &xsede,
            &[TransferFile {
                path: "/export/data/thesis".into(),
                bytes: 2 << 30,
            }],
            &[],
        );
        assert!(report.verified);
        assert!(report.seconds > 0.0);
    }
}

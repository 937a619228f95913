//! Cluster network configuration: the Rocks networks table, `/etc/hosts`
//! generation, and the dual-homed frontend's interface layout.
//!
//! Rocks manages two networks — `private` (eth0, the cluster switch) and
//! `public` (eth1, campus) — and regenerates `/etc/hosts` on every node
//! from its database. The §5.1 build narrative ("a hard-wired connection
//! using a dual-homed headnode ... only one of the two network
//! interfaces will be used on compute nodes") is this layout.

use crate::database::RocksDb;

/// One of the cluster's networks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkDef {
    pub name: String,
    pub subnet: String,
    pub netmask: String,
    /// Interface used for this network on member hosts.
    pub device: String,
}

/// The Rocks networks table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkTable {
    pub private: NetworkDef,
    pub public: NetworkDef,
}

impl NetworkTable {
    /// The stock Rocks layout.
    pub fn standard(public_subnet: &str) -> Self {
        NetworkTable {
            private: NetworkDef {
                name: "private".to_string(),
                subnet: "10.1.0.0".to_string(),
                netmask: "255.255.0.0".to_string(),
                device: "eth0".to_string(),
            },
            public: NetworkDef {
                name: "public".to_string(),
                subnet: public_subnet.to_string(),
                netmask: "255.255.255.0".to_string(),
                device: "eth1".to_string(),
            },
        }
    }

    /// Interfaces a host needs: the frontend joins both networks.
    pub fn interfaces_for(&self, is_frontend: bool) -> Vec<&NetworkDef> {
        if is_frontend {
            vec![&self.private, &self.public]
        } else {
            vec![&self.private]
        }
    }
}

/// Generate `/etc/hosts` from the cluster database (what `rocks report
/// host` feeds to every node via 411).
pub fn generate_etc_hosts(db: &RocksDb, table: &NetworkTable) -> String {
    let mut out = String::from("127.0.0.1\tlocalhost.localdomain localhost\n");
    out.push_str(&format!(
        "# Rocks private network ({})\n",
        table.private.subnet
    ));
    for h in db.hosts() {
        out.push_str(&format!("{}\t{}.local {}\n", h.ip, h.name, h.name));
    }
    out
}

/// Validate that a cluster's NIC inventory supports the network table:
/// frontend needs an interface per network, computes need one.
pub fn validate_nics(
    cluster: &xcbc_cluster::ClusterSpec,
    table: &NetworkTable,
) -> Result<(), String> {
    for node in &cluster.nodes {
        let needed = table
            .interfaces_for(node.role == xcbc_cluster::NodeRole::Frontend)
            .len();
        if node.nics.len() < needed {
            return Err(format!(
                "{} has {} NIC(s) but needs {} for its networks",
                node.hostname,
                node.nics.len(),
                needed
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Appliance;
    use xcbc_cluster::specs::{limulus_hpc200, littlefe_modified};

    fn db() -> RocksDb {
        let mut db = RocksDb::new("littlefe");
        db.add_frontend("ff:ff", 2).unwrap();
        for i in 0..2 {
            db.add_host(Appliance::Compute, 0, &format!("aa:{i:02x}"), 2)
                .unwrap();
        }
        db
    }

    #[test]
    fn standard_layout() {
        let t = NetworkTable::standard("156.56.1.0");
        assert_eq!(t.private.device, "eth0");
        assert_eq!(t.public.device, "eth1");
        assert_eq!(t.interfaces_for(true).len(), 2);
        assert_eq!(t.interfaces_for(false).len(), 1);
    }

    #[test]
    fn etc_hosts_lists_every_host() {
        let hosts = generate_etc_hosts(&db(), &NetworkTable::standard("156.56.1.0"));
        assert!(hosts.contains("localhost"));
        assert!(hosts.contains("littlefe.local littlefe"));
        assert!(hosts.contains("compute-0-0.local"));
        assert!(hosts.contains("compute-0-1.local"));
        assert_eq!(hosts.matches("10.1.255.").count(), 3);
    }

    #[test]
    fn modified_littlefe_nics_validate() {
        let t = NetworkTable::standard("156.56.1.0");
        assert!(validate_nics(&littlefe_modified(), &t).is_ok());
        assert!(validate_nics(&limulus_hpc200(), &t).is_ok());
    }

    #[test]
    fn single_homed_frontend_fails_validation() {
        let mut cluster = littlefe_modified();
        cluster.nodes[0].nics.truncate(1);
        let t = NetworkTable::standard("156.56.1.0");
        let err = validate_nics(&cluster, &t).unwrap_err();
        assert!(err.contains("littlefe"));
        assert!(err.contains("needs 2"));
    }
}

//! The Rocks cluster database.
//!
//! §3: "Using an internal database, Rocks can manage many compute nodes.
//! This allows an administrator to easily add, remove, and upgrade
//! software across nodes and to maintain a uniform environment." We keep
//! the host table with the Rocks naming convention
//! (`compute-<rack>-<rank>`), MAC/IP assignments, memberships, and the
//! private network allocation.

use crate::graph::Appliance;
use std::collections::BTreeMap;
use std::fmt;

/// Membership binds a host to an appliance (Rocks also distinguishes
/// sub-memberships; we keep the appliance plus the distribution name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Membership {
    pub appliance: Appliance,
}

/// One row of the hosts table.
#[derive(Debug, Clone, PartialEq)]
pub struct HostRecord {
    pub name: String,
    pub membership: Membership,
    pub rack: u32,
    pub rank: u32,
    pub mac: String,
    pub ip: String,
    /// CPU count as the DB records it.
    pub cpus: u32,
    /// Run a full reinstall on next PXE boot?
    pub install_action: bool,
}

/// Errors from database operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    DuplicateHost(String),
    DuplicateMac(String),
    UnknownHost(String),
    /// The private network ran out of addresses.
    NetworkExhausted,
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::DuplicateHost(h) => write!(f, "host {h} already exists"),
            DbError::DuplicateMac(m) => write!(f, "MAC {m} already registered"),
            DbError::UnknownHost(h) => write!(f, "unknown host {h}"),
            DbError::NetworkExhausted => write!(f, "private network exhausted"),
        }
    }
}

impl std::error::Error for DbError {}

/// The cluster database.
#[derive(Debug, Clone)]
pub struct RocksDb {
    /// Cluster (frontend) name.
    pub cluster_name: String,
    /// Private network base, e.g. 10.1.x.y.
    net_prefix: (u8, u8),
    hosts: BTreeMap<String, HostRecord>,
    next_host_octet: u8,
}

impl RocksDb {
    pub fn new(cluster_name: impl Into<String>) -> Self {
        RocksDb {
            cluster_name: cluster_name.into(),
            net_prefix: (10, 1),
            hosts: BTreeMap::new(),
            next_host_octet: 1,
        }
    }

    fn next_ip(&mut self) -> Result<String, DbError> {
        if self.next_host_octet == 255 {
            return Err(DbError::NetworkExhausted);
        }
        let ip = format!(
            "{}.{}.255.{}",
            self.net_prefix.0, self.net_prefix.1, self.next_host_octet
        );
        self.next_host_octet += 1;
        Ok(ip)
    }

    /// Add the frontend itself (Rocks does this during the frontend
    /// install).
    pub fn add_frontend(&mut self, mac: &str, cpus: u32) -> Result<&HostRecord, DbError> {
        let name = self.cluster_name.clone();
        self.add_host_named(&name, Appliance::Frontend, 0, 0, mac, cpus)
    }

    /// Add a host with the Rocks naming convention for its appliance:
    /// `compute-<rack>-<rank>` / `nas-<rack>-<rank>`. Rank is the next
    /// free rank in the rack.
    pub fn add_host(
        &mut self,
        appliance: Appliance,
        rack: u32,
        mac: &str,
        cpus: u32,
    ) -> Result<&HostRecord, DbError> {
        let rank = self
            .hosts
            .values()
            .filter(|h| h.membership.appliance == appliance && h.rack == rack)
            .map(|h| h.rank + 1)
            .max()
            .unwrap_or(0);
        let prefix = match appliance {
            Appliance::Compute => "compute",
            Appliance::Nas => "nas",
            Appliance::Frontend => {
                let name = self.cluster_name.clone();
                return self.add_host_named(&name, appliance, rack, rank, mac, cpus);
            }
        };
        let name = format!("{prefix}-{rack}-{rank}");
        self.add_host_named(&name, appliance, rack, rank, mac, cpus)
    }

    fn add_host_named(
        &mut self,
        name: &str,
        appliance: Appliance,
        rack: u32,
        rank: u32,
        mac: &str,
        cpus: u32,
    ) -> Result<&HostRecord, DbError> {
        if self.hosts.contains_key(name) {
            return Err(DbError::DuplicateHost(name.to_string()));
        }
        if self.hosts.values().any(|h| h.mac == mac) {
            return Err(DbError::DuplicateMac(mac.to_string()));
        }
        let ip = self.next_ip()?;
        self.hosts.insert(
            name.to_string(),
            HostRecord {
                name: name.to_string(),
                membership: Membership { appliance },
                rack,
                rank,
                mac: mac.to_string(),
                ip,
                cpus,
                install_action: true,
            },
        );
        Ok(&self.hosts[name])
    }

    /// Remove a host (`rocks remove host`).
    pub fn remove_host(&mut self, name: &str) -> Result<HostRecord, DbError> {
        self.hosts
            .remove(name)
            .ok_or_else(|| DbError::UnknownHost(name.to_string()))
    }

    pub fn host(&self, name: &str) -> Option<&HostRecord> {
        self.hosts.get(name)
    }

    pub fn host_mut(&mut self, name: &str) -> Option<&mut HostRecord> {
        self.hosts.get_mut(name)
    }

    /// All hosts, name-sorted (`rocks list host`).
    pub fn hosts(&self) -> impl Iterator<Item = &HostRecord> {
        self.hosts.values()
    }

    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Hosts of one appliance type.
    pub fn hosts_of(&self, appliance: Appliance) -> Vec<&HostRecord> {
        self.hosts
            .values()
            .filter(|h| h.membership.appliance == appliance)
            .collect()
    }

    /// Look a host up by the MAC its DHCP request carries.
    pub fn host_by_mac(&self, mac: &str) -> Option<&HostRecord> {
        self.hosts.values().find(|h| h.mac == mac)
    }

    /// `rocks set host boot <host> action=install|os`.
    pub fn set_install_action(&mut self, name: &str, reinstall: bool) -> Result<(), DbError> {
        self.host_mut(name)
            .map(|h| h.install_action = reinstall)
            .ok_or_else(|| DbError::UnknownHost(name.to_string()))
    }

    /// Render `rocks list host` output.
    pub fn render_host_list(&self) -> String {
        let mut out = String::from("HOST            MEMBERSHIP  RACK RANK CPUS IP\n");
        for h in self.hosts.values() {
            out.push_str(&format!(
                "{:<15} {:<11} {:>4} {:>4} {:>4} {}\n",
                h.name,
                h.membership.appliance.label(),
                h.rack,
                h.rank,
                h.cpus,
                h.ip
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_nodes(n: u32) -> RocksDb {
        let mut db = RocksDb::new("littlefe");
        db.add_frontend("00:00:00:00:00:ff", 2).unwrap();
        for i in 0..n {
            db.add_host(Appliance::Compute, 0, &format!("00:00:00:00:00:{i:02x}"), 2)
                .unwrap();
        }
        db
    }

    #[test]
    fn naming_convention() {
        let db = db_with_nodes(3);
        assert!(db.host("littlefe").is_some());
        assert!(db.host("compute-0-0").is_some());
        assert!(db.host("compute-0-2").is_some());
        assert!(db.host("compute-0-3").is_none());
    }

    #[test]
    fn ranks_per_rack_independent() {
        let mut db = RocksDb::new("c");
        db.add_host(Appliance::Compute, 0, "aa:00", 2).unwrap();
        db.add_host(Appliance::Compute, 1, "aa:01", 2).unwrap();
        db.add_host(Appliance::Compute, 0, "aa:02", 2).unwrap();
        assert!(db.host("compute-0-0").is_some());
        assert!(db.host("compute-1-0").is_some());
        assert!(db.host("compute-0-1").is_some());
    }

    #[test]
    fn unique_ips_assigned() {
        let db = db_with_nodes(5);
        let mut ips: Vec<_> = db.hosts().map(|h| h.ip.clone()).collect();
        let total = ips.len();
        ips.sort();
        ips.dedup();
        assert_eq!(ips.len(), total);
        assert!(ips.iter().all(|ip| ip.starts_with("10.1.255.")));
    }

    #[test]
    fn duplicate_mac_rejected() {
        let mut db = db_with_nodes(1);
        let err = db
            .add_host(Appliance::Compute, 0, "00:00:00:00:00:00", 2)
            .unwrap_err();
        assert_eq!(err, DbError::DuplicateMac("00:00:00:00:00:00".to_string()));
    }

    #[test]
    fn duplicate_frontend_rejected() {
        let mut db = db_with_nodes(0);
        let err = db.add_frontend("bb:bb", 2).unwrap_err();
        assert_eq!(err, DbError::DuplicateHost("littlefe".to_string()));
    }

    #[test]
    fn remove_and_unknown_host() {
        let mut db = db_with_nodes(1);
        assert!(db.remove_host("compute-0-0").is_ok());
        assert_eq!(
            db.remove_host("compute-0-0"),
            Err(DbError::UnknownHost("compute-0-0".into()))
        );
        assert_eq!(db.host_count(), 1);
    }

    #[test]
    fn lookup_by_mac() {
        let db = db_with_nodes(2);
        assert_eq!(
            db.host_by_mac("00:00:00:00:00:01").unwrap().name,
            "compute-0-1"
        );
        assert!(db.host_by_mac("ff:ff").is_none());
    }

    #[test]
    fn install_action_toggles() {
        let mut db = db_with_nodes(1);
        assert!(db.host("compute-0-0").unwrap().install_action);
        db.set_install_action("compute-0-0", false).unwrap();
        assert!(!db.host("compute-0-0").unwrap().install_action);
        assert!(db.set_install_action("ghost", true).is_err());
    }

    #[test]
    fn hosts_of_filters() {
        let db = db_with_nodes(4);
        assert_eq!(db.hosts_of(Appliance::Compute).len(), 4);
        assert_eq!(db.hosts_of(Appliance::Frontend).len(), 1);
        assert!(db.hosts_of(Appliance::Nas).is_empty());
    }

    #[test]
    fn render_lists_all() {
        let db = db_with_nodes(2);
        let out = db.render_host_list();
        assert!(out.contains("littlefe"));
        assert!(out.contains("compute-0-1"));
        assert!(out.contains("Frontend"));
    }

    #[test]
    fn network_exhaustion() {
        let mut db = RocksDb::new("big");
        for i in 0..254u32 {
            db.add_host(Appliance::Compute, 0, &format!("m{i}"), 1)
                .unwrap();
        }
        let err = db.add_host(Appliance::Compute, 0, "mlast", 1).unwrap_err();
        assert_eq!(err, DbError::NetworkExhausted);
    }
}

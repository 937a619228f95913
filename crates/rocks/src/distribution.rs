//! The Rocks distribution tree (`rocks create distro`).
//!
//! The frontend serves installs from a local tree built out of the rolls
//! it carries. §3's update discussion hinges on this: after adding a roll
//! (e.g. an XSEDE update roll) the administrator must *rebuild the
//! distribution* and set nodes to reinstall — the laborious path the
//! paper contrasts with `yum update`.

use crate::roll::Roll;
use std::collections::BTreeMap;
use std::sync::Arc;
use xcbc_rpm::{Evr, Package};

/// The frontend's install tree.
#[derive(Debug, Clone, Default)]
pub struct Distribution {
    /// name → best package available in the tree.
    packages: BTreeMap<String, Arc<Package>>,
    /// Times the tree has been rebuilt (each rebuild is admin effort).
    pub rebuild_count: u32,
}

impl Distribution {
    pub fn new() -> Self {
        Self::default()
    }

    /// `rocks add roll` + `rocks enable roll` + `rocks create distro`:
    /// incorporate a roll and rebuild. Newer EVRs win (an *update roll*
    /// shadows the original packages).
    pub fn add_roll_and_rebuild(&mut self, roll: &Roll) {
        for p in &roll.packages {
            match self.packages.get(p.name()) {
                Some(existing) if existing.nevra.evr >= p.nevra.evr => {}
                _ => {
                    self.packages.insert(p.name().to_string(), p.clone());
                }
            }
        }
        self.rebuild_count += 1;
    }

    pub fn package_count(&self) -> usize {
        self.packages.len()
    }

    /// The version of `name` the next kickstart will install.
    pub fn version_of(&self, name: &str) -> Option<&Evr> {
        self.packages.get(name).map(|p| &p.nevra.evr)
    }

    /// Everything in the tree.
    pub fn packages(&self) -> impl Iterator<Item = &Package> {
        self.packages.values().map(|p| &**p)
    }

    /// Total tree size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.packages.values().map(|p| p.size_bytes).sum()
    }
}

/// Build an *update roll*: given the current distribution and a newer
/// package set (e.g. the XSEDE yum repo contents), produce a roll holding
/// exactly the packages that are newer than what the tree carries — the
/// Rocks-documented "preferred method" for updates.
pub fn build_update_roll(distro: &Distribution, newer: &[Package], version: &str) -> Roll {
    let updates: Vec<Package> = newer
        .iter()
        .filter(|p| match distro.version_of(p.name()) {
            Some(current) => &p.nevra.evr > current,
            None => false, // update rolls only update, never introduce
        })
        .cloned()
        .collect();
    Roll::new(
        "updates",
        version,
        false,
        "site update roll (rocks create mirror)",
    )
    .with_packages(updates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roll::standard_rolls;
    use xcbc_rpm::PackageBuilder;

    fn base_distro() -> Distribution {
        let mut d = Distribution::new();
        for roll in standard_rolls() {
            d.add_roll_and_rebuild(&roll);
        }
        d
    }

    #[test]
    fn incorporates_all_rolls() {
        let d = base_distro();
        assert_eq!(d.rebuild_count as usize, standard_rolls().len());
        assert!(d.package_count() > 20);
        assert!(d.size_bytes() > 0);
    }

    #[test]
    fn update_roll_contains_only_newer() {
        let d = base_distro();
        let newer = vec![
            PackageBuilder::new("bash", "4.1.2", "29.el6").build(), // newer release
            PackageBuilder::new("glibc", "2.12", "1.el6").build(),  // older/equal → excluded
            PackageBuilder::new("brandnew", "1.0", "1").build(),    // not in tree → excluded
        ];
        let roll = build_update_roll(&d, &newer, "2015.03");
        let names: Vec<_> = roll.packages.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["bash"]);
    }

    #[test]
    fn applying_update_roll_bumps_versions() {
        let mut d = base_distro();
        let rebuilds_before = d.rebuild_count;
        let newer = vec![PackageBuilder::new("bash", "4.1.2", "29.el6").build()];
        let roll = build_update_roll(&d, &newer, "2015.03");
        d.add_roll_and_rebuild(&roll);
        assert_eq!(d.version_of("bash").unwrap().release, "29.el6");
        assert_eq!(
            d.rebuild_count,
            rebuilds_before + 1,
            "every update costs a rebuild"
        );
    }

    #[test]
    fn older_roll_does_not_downgrade() {
        let mut d = base_distro();
        let old = Roll::new("stale", "0.1", false, "old packages")
            .with_packages(vec![PackageBuilder::new("bash", "3.2", "1").build()]);
        d.add_roll_and_rebuild(&old);
        assert_eq!(d.version_of("bash").unwrap().version, "4.1.2");
    }

    #[test]
    fn empty_update_roll_when_current() {
        let d = base_distro();
        let same: Vec<Package> = d.packages().cloned().collect();
        let roll = build_update_roll(&d, &same, "x");
        assert!(roll.packages.is_empty());
    }
}

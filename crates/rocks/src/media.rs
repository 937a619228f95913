//! Install media: what a roll set burns onto the Rocks install DVD.
//!
//! The selected rolls, the kickstart graph their fragments merge into,
//! and each appliance's walk of that graph resolved against the rolls'
//! packages depend on the roll set alone, never on the cluster being
//! installed. So one [`InstallMedia`] serves any number of
//! [`ClusterInstall`](crate::ClusterInstall)s, on any number of threads:
//! every node of an appliance takes the same package list, and every
//! install from one media hands the node image store the same
//! `Arc<Package>`s.

use crate::graph::{Appliance, GraphError, KickstartGraph};
use crate::roll::Roll;
use std::collections::BTreeMap;
use std::sync::Arc;
use xcbc_rpm::Package;
use xcbc_sim::Fnv64;

/// One appliance's walk of the media's kickstart graph.
#[derive(Debug)]
pub struct ApplianceWalk {
    /// Package names, deduplicated and sorted.
    pub packages: Vec<String>,
    /// %post scripts, in walk order.
    pub post_scripts: Vec<String>,
    /// `packages` from the roll catalog, in list order, or the first
    /// name that no selected roll carries.
    pub(crate) resolved: Result<Vec<Arc<Package>>, String>,
    /// Digest of `packages`: where a node image store files the
    /// database a node of this walk commits.
    pub(crate) key: u64,
}

/// A roll set ready to install from: rolls, merged kickstart graph, and
/// every appliance's walk.
#[derive(Debug)]
pub struct InstallMedia {
    rolls: Vec<Roll>,
    graph: KickstartGraph,
    /// One walk per appliance, in [`Appliance::ALL`] order.
    walks: [Result<ApplianceWalk, GraphError>; Appliance::ALL.len()],
}

impl InstallMedia {
    /// Media for `rolls`. Roll graph fragments are merged into the
    /// standard graph and attached to both frontend and compute
    /// appliances; a package name that two rolls carry resolves to the
    /// later roll's package.
    pub fn new(rolls: Vec<Roll>) -> Self {
        let mut graph = KickstartGraph::standard();
        for roll in &rolls {
            graph
                .merge_roll_nodes(
                    &roll.graph_nodes,
                    &[Appliance::Frontend, Appliance::Compute],
                )
                .expect("standard graph has both roots");
        }
        let catalog: BTreeMap<&str, &Arc<Package>> = rolls
            .iter()
            .flat_map(|r| &r.packages)
            .map(|p| (p.name(), p))
            .collect();
        let walks = Appliance::ALL.map(|appliance| {
            let packages = graph.packages_for(appliance)?;
            let resolved = packages
                .iter()
                .map(|name| catalog.get(name.as_str()).copied().cloned().ok_or(name))
                .collect::<Result<_, _>>()
                .map_err(String::clone);
            let mut key = Fnv64::new();
            for name in &packages {
                key.write_str(name);
            }
            Ok(ApplianceWalk {
                post_scripts: graph.post_scripts_for(appliance)?,
                resolved,
                key: key.finish(),
                packages,
            })
        });
        InstallMedia {
            rolls,
            graph,
            walks,
        }
    }

    /// The rolls on the media, in selection order.
    pub fn rolls(&self) -> &[Roll] {
        &self.rolls
    }

    pub fn graph(&self) -> &KickstartGraph {
        &self.graph
    }

    /// `appliance`'s walk, or why the graph could not be walked from
    /// its root.
    pub fn walk(&self, appliance: Appliance) -> Result<&ApplianceWalk, &GraphError> {
        self.walks[appliance as usize].as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roll::standard_rolls;

    #[test]
    fn walks_are_the_graph_walks() {
        let media = InstallMedia::new(standard_rolls());
        for appliance in Appliance::ALL {
            let walk = media.walk(appliance).unwrap();
            assert_eq!(
                walk.packages,
                media.graph().packages_for(appliance).unwrap()
            );
            assert_eq!(
                walk.post_scripts,
                media.graph().post_scripts_for(appliance).unwrap()
            );
        }
        let compute = media.walk(Appliance::Compute).unwrap();
        let resolved = compute.resolved.as_ref().unwrap();
        assert!(resolved
            .iter()
            .map(|p| p.name())
            .eq(compute.packages.iter().map(String::as_str)));
    }

    #[test]
    fn a_name_no_roll_carries_is_kept_for_the_node_that_needs_it() {
        let only_base: Vec<Roll> = standard_rolls()
            .into_iter()
            .filter(|r| r.name == "base")
            .collect();
        let media = InstallMedia::new(only_base);
        let walk = media.walk(Appliance::Compute).unwrap();
        let missing = walk.resolved.as_ref().unwrap_err();
        assert_eq!(
            missing,
            walk.packages
                .iter()
                .find(|name| !["rocks-base", "rocks-command", "rocks-411"].contains(&name.as_str()))
                .unwrap()
        );
    }
}

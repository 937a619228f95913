//! The kickstart graph.
//!
//! Rocks expresses "what gets installed on which appliance" as a directed
//! graph of XML node files; traversing the graph from an appliance's root
//! node collects its package set and %post scripts. We reproduce the
//! structure: named nodes carrying packages/scripts, directed edges, and
//! a per-appliance traversal with cycle detection.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Appliance types (Rocks "memberships" bind hosts to these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Appliance {
    Frontend,
    Compute,
    Nas,
}

impl Appliance {
    /// Every appliance, in declaration order.
    pub const ALL: [Appliance; 3] = [Appliance::Frontend, Appliance::Compute, Appliance::Nas];

    /// The graph root node for this appliance.
    pub fn root_node(self) -> &'static str {
        match self {
            Appliance::Frontend => "frontend",
            Appliance::Compute => "compute",
            Appliance::Nas => "nas",
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Appliance::Frontend => "Frontend",
            Appliance::Compute => "Compute",
            Appliance::Nas => "NAS Appliance",
        }
    }
}

/// One node file in the graph.
#[derive(Debug, Clone, Default)]
pub struct GraphNode {
    pub name: String,
    /// Package *names* this node pulls in.
    pub packages: Vec<String>,
    /// %post script descriptions.
    pub post_scripts: Vec<String>,
}

impl GraphNode {
    pub fn new(name: &str) -> Self {
        GraphNode {
            name: name.to_string(),
            ..Default::default()
        }
    }

    pub fn package(mut self, p: &str) -> Self {
        self.packages.push(p.to_string());
        self
    }

    pub fn post(mut self, script: &str) -> Self {
        self.post_scripts.push(script.to_string());
        self
    }
}

/// Errors from graph operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Edge references a node that does not exist.
    UnknownNode(String),
    /// The appliance root is missing.
    MissingRoot(&'static str),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::UnknownNode(n) => write!(f, "edge references unknown node {n}"),
            GraphError::MissingRoot(r) => write!(f, "appliance root node {r} missing"),
        }
    }
}

impl std::error::Error for GraphError {}

/// The kickstart graph: nodes plus directed edges (`from` includes `to`).
#[derive(Debug, Clone, Default)]
pub struct KickstartGraph {
    nodes: BTreeMap<String, GraphNode>,
    edges: BTreeMap<String, BTreeSet<String>>,
}

impl KickstartGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// The stock Rocks 6.1.1 graph skeleton: frontend and compute both
    /// include `base`; the frontend additionally includes server-side
    /// services (database, web server, dhcp, installer tree).
    pub fn standard() -> Self {
        let mut g = KickstartGraph::new();
        g.add_node(
            GraphNode::new("base")
                .package("rocks-base")
                .package("rocks-command")
                .package("bash")
                .package("coreutils")
                .package("glibc")
                .package("openssh-server")
                .post("configure 411 client"),
        );
        g.add_node(
            GraphNode::new("frontend")
                .package("rocks-411")
                .package("httpd")
                .package("rocks-webserver")
                .post("initialize cluster database")
                .post("start dhcpd on private interface")
                .post("build central installer tree"),
        );
        g.add_node(GraphNode::new("compute").post("configure pxe re-install flag"));
        g.add_node(
            GraphNode::new("nas")
                .package("rsync")
                .post("export /export via nfs"),
        );
        g.add_node(
            GraphNode::new("client")
                .package("rsync")
                .post("point 411 at frontend"),
        );
        g.add_edge("frontend", "base").unwrap();
        g.add_edge("compute", "base").unwrap();
        g.add_edge("compute", "client").unwrap();
        g.add_edge("nas", "base").unwrap();
        g.add_edge("nas", "client").unwrap();
        g
    }

    pub fn add_node(&mut self, node: GraphNode) {
        self.edges.entry(node.name.clone()).or_default();
        self.nodes.insert(node.name.clone(), node);
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Add an edge `from → to` ("from includes to").
    pub fn add_edge(&mut self, from: &str, to: &str) -> Result<(), GraphError> {
        if !self.nodes.contains_key(from) {
            return Err(GraphError::UnknownNode(from.to_string()));
        }
        if !self.nodes.contains_key(to) {
            return Err(GraphError::UnknownNode(to.to_string()));
        }
        self.edges
            .get_mut(from)
            .expect("entry exists")
            .insert(to.to_string());
        Ok(())
    }

    /// Merge a roll's graph fragments into the distribution graph and
    /// attach each fragment to the given appliance roots (what `rocks add
    /// roll` + `rocks enable roll` accomplish).
    pub fn merge_roll_nodes(
        &mut self,
        nodes: &[GraphNode],
        attach_to: &[Appliance],
    ) -> Result<(), GraphError> {
        for n in nodes {
            self.add_node(n.clone());
        }
        for n in nodes {
            for a in attach_to {
                if !self.nodes.contains_key(a.root_node()) {
                    return Err(GraphError::MissingRoot(a.root_node()));
                }
                self.add_edge(a.root_node(), &n.name)?;
            }
        }
        Ok(())
    }

    /// BFS from the appliance root, collecting reachable nodes (each once,
    /// even through diamonds/cycles).
    fn reachable(&self, appliance: Appliance) -> Result<Vec<&GraphNode>, GraphError> {
        let root = appliance.root_node();
        if !self.nodes.contains_key(root) {
            return Err(GraphError::MissingRoot(root));
        }
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::new();
        let mut order = Vec::new();
        seen.insert(root.to_string());
        queue.push_back(root.to_string());
        while let Some(name) = queue.pop_front() {
            order.push(&self.nodes[&name]);
            if let Some(nexts) = self.edges.get(&name) {
                for next in nexts {
                    if seen.insert(next.clone()) {
                        queue.push_back(next.clone());
                    }
                }
            }
        }
        Ok(order)
    }

    /// Deduplicated, sorted package list for an appliance.
    pub fn packages_for(&self, appliance: Appliance) -> Result<Vec<String>, GraphError> {
        let mut pkgs: BTreeSet<String> = BTreeSet::new();
        for node in self.reachable(appliance)? {
            pkgs.extend(node.packages.iter().cloned());
        }
        Ok(pkgs.into_iter().collect())
    }

    /// %post scripts for an appliance, in BFS order.
    pub fn post_scripts_for(&self, appliance: Appliance) -> Result<Vec<String>, GraphError> {
        let mut out = Vec::new();
        for node in self.reachable(appliance)? {
            out.extend(node.post_scripts.iter().cloned());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_graph_roots_exist() {
        let g = KickstartGraph::standard();
        for a in [Appliance::Frontend, Appliance::Compute, Appliance::Nas] {
            assert!(g.packages_for(a).is_ok(), "{}", a.root_node());
        }
    }

    #[test]
    fn frontend_and_compute_share_base() {
        let g = KickstartGraph::standard();
        let fe = g.packages_for(Appliance::Frontend).unwrap();
        let co = g.packages_for(Appliance::Compute).unwrap();
        assert!(fe.contains(&"rocks-base".to_string()));
        assert!(co.contains(&"rocks-base".to_string()));
        // frontend-only bits
        assert!(fe.contains(&"httpd".to_string()));
        assert!(!co.contains(&"httpd".to_string()));
    }

    #[test]
    fn compute_gets_client_config() {
        let g = KickstartGraph::standard();
        let posts = g.post_scripts_for(Appliance::Compute).unwrap();
        assert!(posts.iter().any(|s| s.contains("411")));
        assert!(posts.iter().any(|s| s.contains("pxe")));
    }

    #[test]
    fn edge_to_unknown_node_rejected() {
        let mut g = KickstartGraph::standard();
        assert_eq!(
            g.add_edge("frontend", "nonexistent"),
            Err(GraphError::UnknownNode("nonexistent".to_string()))
        );
        assert_eq!(
            g.add_edge("ghost", "base"),
            Err(GraphError::UnknownNode("ghost".to_string()))
        );
    }

    #[test]
    fn missing_root_detected() {
        let g = KickstartGraph::new();
        assert_eq!(
            g.packages_for(Appliance::Compute),
            Err(GraphError::MissingRoot("compute"))
        );
    }

    #[test]
    fn merge_roll_attaches_to_appliances() {
        let mut g = KickstartGraph::standard();
        let nodes = vec![GraphNode::new("xsede-sci")
            .package("gromacs")
            .package("lammps")];
        g.merge_roll_nodes(&nodes, &[Appliance::Frontend, Appliance::Compute])
            .unwrap();
        assert!(g
            .packages_for(Appliance::Frontend)
            .unwrap()
            .contains(&"gromacs".to_string()));
        assert!(g
            .packages_for(Appliance::Compute)
            .unwrap()
            .contains(&"lammps".to_string()));
        assert!(!g
            .packages_for(Appliance::Nas)
            .unwrap()
            .contains(&"gromacs".to_string()));
    }

    #[test]
    fn cycles_do_not_hang_traversal() {
        let mut g = KickstartGraph::standard();
        g.add_node(GraphNode::new("a").package("pa"));
        g.add_node(GraphNode::new("b").package("pb"));
        g.add_edge("a", "b").unwrap();
        g.add_edge("b", "a").unwrap();
        g.add_edge("compute", "a").unwrap();
        let pkgs = g.packages_for(Appliance::Compute).unwrap();
        assert!(pkgs.contains(&"pa".to_string()));
        assert!(pkgs.contains(&"pb".to_string()));
    }

    #[test]
    fn packages_deduplicated() {
        let mut g = KickstartGraph::standard();
        g.add_node(GraphNode::new("dup1").package("same"));
        g.add_node(GraphNode::new("dup2").package("same"));
        g.add_edge("compute", "dup1").unwrap();
        g.add_edge("compute", "dup2").unwrap();
        let pkgs = g.packages_for(Appliance::Compute).unwrap();
        assert_eq!(pkgs.iter().filter(|p| *p == "same").count(), 1);
    }
}

//! The Rocks 411 secure information service.
//!
//! 411 distributes login files (`/etc/passwd`, `/etc/group`,
//! `/etc/shadow`, auto.home maps) from the frontend to compute nodes —
//! how a user created on the frontend can log in everywhere. Table 1's
//! base roll ships it (`rocks-411`); the training curriculum's "add a
//! user" lab exercises it.

use std::collections::BTreeMap;

/// One distributed file with a version stamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncedFile {
    pub path: String,
    pub content: String,
    pub serial: u64,
}

/// The frontend's 411 master.
#[derive(Debug, Default)]
pub struct Master411 {
    files: BTreeMap<String, SyncedFile>,
    serial: u64,
}

/// A compute node's 411 client state.
#[derive(Debug, Clone, Default)]
pub struct Client411 {
    files: BTreeMap<String, SyncedFile>,
}

impl Master411 {
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish (or update) a file; bumps the global serial.
    pub fn publish(&mut self, path: &str, content: &str) {
        self.serial += 1;
        self.files.insert(
            path.to_string(),
            SyncedFile {
                path: path.to_string(),
                content: content.to_string(),
                serial: self.serial,
            },
        );
    }

    pub fn serial(&self) -> u64 {
        self.serial
    }

    pub fn get(&self, path: &str) -> Option<&SyncedFile> {
        self.files.get(path)
    }

    /// Files newer than a client's view (the poll a client makes).
    fn newer_than(&self, since: u64) -> Vec<&SyncedFile> {
        self.files.values().filter(|f| f.serial > since).collect()
    }
}

impl Client411 {
    pub fn new() -> Self {
        Self::default()
    }

    /// The client's highest seen serial.
    pub fn serial(&self) -> u64 {
        self.files.values().map(|f| f.serial).max().unwrap_or(0)
    }

    /// Poll the master; returns how many files were refreshed.
    pub fn poll(&mut self, master: &Master411) -> usize {
        let updates: Vec<SyncedFile> = master
            .newer_than(self.serial())
            .into_iter()
            .cloned()
            .collect();
        let n = updates.len();
        for f in updates {
            self.files.insert(f.path.clone(), f);
        }
        n
    }

    pub fn get(&self, path: &str) -> Option<&str> {
        self.files.get(path).map(|f| f.content.as_str())
    }

    /// Is this client fully synchronized?
    pub fn in_sync(&self, master: &Master411) -> bool {
        master.newer_than(self.serial()).is_empty()
    }
}

/// The curriculum lab: add a user on the frontend and verify login data
/// reaches every node. Returns the nodes now carrying the user.
pub fn add_user_lab(
    master: &mut Master411,
    clients: &mut BTreeMap<String, Client411>,
    username: &str,
    uid: u32,
) -> Vec<String> {
    let passwd_line = format!("{username}:x:{uid}:{uid}::/export/home/{username}:/bin/bash\n");
    let current = master
        .get("/etc/passwd")
        .map(|f| f.content.clone())
        .unwrap_or_default();
    master.publish("/etc/passwd", &(current + &passwd_line));
    let mut reached = Vec::new();
    for (host, client) in clients.iter_mut() {
        client.poll(master);
        if client
            .get("/etc/passwd")
            .map(|c| c.contains(username))
            .unwrap_or(false)
        {
            reached.push(host.clone());
        }
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_and_poll() {
        let mut master = Master411::new();
        master.publish("/etc/passwd", "root:x:0:0::/root:/bin/bash\n");
        let mut client = Client411::new();
        assert!(!client.in_sync(&master));
        assert_eq!(client.poll(&master), 1);
        assert!(client.in_sync(&master));
        assert!(client.get("/etc/passwd").unwrap().contains("root"));
        // idle poll transfers nothing
        assert_eq!(client.poll(&master), 0);
    }

    #[test]
    fn updates_propagate_incrementally() {
        let mut master = Master411::new();
        master.publish("/etc/passwd", "root\n");
        master.publish("/etc/group", "wheel\n");
        let mut client = Client411::new();
        client.poll(&master);
        master.publish("/etc/passwd", "root\nalice\n");
        assert_eq!(client.poll(&master), 1, "only the changed file refetches");
        assert!(client.get("/etc/passwd").unwrap().contains("alice"));
    }

    #[test]
    fn add_user_reaches_all_nodes() {
        let mut master = Master411::new();
        master.publish("/etc/passwd", "root:x:0:0::/root:/bin/bash\n");
        let mut clients: BTreeMap<String, Client411> = (0..5)
            .map(|i| (format!("compute-0-{i}"), Client411::new()))
            .collect();
        let reached = add_user_lab(&mut master, &mut clients, "student1", 500);
        assert_eq!(reached.len(), 5);
        for c in clients.values() {
            assert!(c.get("/etc/passwd").unwrap().contains("student1:x:500"));
            assert!(
                c.get("/etc/passwd").unwrap().contains("root"),
                "old entries kept"
            );
        }
    }

    #[test]
    fn stale_client_catches_up_on_everything() {
        let mut master = Master411::new();
        for i in 0..4 {
            master.publish(&format!("/etc/file{i}"), "x");
        }
        let mut late = Client411::new();
        assert_eq!(late.poll(&master), 4);
        assert_eq!(late.serial(), master.serial());
    }
}

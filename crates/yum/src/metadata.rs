//! Repository metadata — the `repodata/` tree a `createrepo` run produces.
//!
//! Real yum serves `repomd.xml` + `primary.xml.gz`; we serialize the same
//! information as JSON via the crate-local [`crate::json`] module (the
//! offline build cannot fetch `serde_json`). The metadata is what
//! `yum makecache` downloads, and what the paper's "subscribe ... to
//! automatically be notified of updates" workflow diffs.

use crate::json::{JsonError, JsonObject, JsonValue};
use crate::repo::Repository;
use xcbc_rpm::{Arch, Evr};

/// Error from [`RepoMetadata::from_json`]: either malformed JSON or a
/// well-formed document missing expected fields.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MetadataError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// Valid JSON with an unexpected structure.
    Shape(String),
}

impl std::fmt::Display for MetadataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetadataError::Json(e) => write!(f, "metadata parse failed: {e}"),
            MetadataError::Shape(m) => write!(f, "metadata shape error: {m}"),
        }
    }
}

impl std::error::Error for MetadataError {}

impl From<JsonError> for MetadataError {
    fn from(e: JsonError) -> Self {
        MetadataError::Json(e)
    }
}

/// One package record in the primary metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimaryRecord {
    pub name: String,
    pub epoch: u32,
    pub version: String,
    pub release: String,
    pub arch: Arch,
    pub summary: String,
    pub size_bytes: u64,
    pub provides: Vec<String>,
    pub requires: Vec<String>,
    pub location: String,
}

impl PrimaryRecord {
    pub fn evr(&self) -> Evr {
        Evr::new(self.epoch, self.version.clone(), self.release.clone())
    }
}

/// The repo-level metadata document (`repomd.xml` analog).
#[derive(Debug, Clone, PartialEq)]
pub struct RepoMetadata {
    pub repo_id: String,
    pub revision: u64,
    pub package_count: usize,
    pub total_size_bytes: u64,
    pub primary: Vec<PrimaryRecord>,
}

impl RepoMetadata {
    /// Generate metadata from a repository's current contents.
    pub fn generate(repo: &Repository) -> Self {
        let mut primary: Vec<PrimaryRecord> = repo
            .packages()
            .iter()
            .map(|p| PrimaryRecord {
                name: p.name().to_string(),
                epoch: p.evr().epoch,
                version: p.evr().version.clone(),
                release: p.evr().release.clone(),
                arch: p.arch(),
                summary: p.summary.clone(),
                size_bytes: p.size_bytes,
                provides: p.all_provides().iter().map(|d| d.to_string()).collect(),
                requires: p.requires.iter().map(|d| d.to_string()).collect(),
                location: format!("Packages/{}", p.nevra.filename()),
            })
            .collect();
        primary.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.evr().cmp(&b.evr())));
        RepoMetadata {
            repo_id: repo.id.clone(),
            revision: repo.revision,
            package_count: primary.len(),
            total_size_bytes: primary.iter().map(|r| r.size_bytes).sum(),
            primary,
        }
    }

    /// Serialize to the on-wire form.
    pub fn to_json(&self) -> String {
        let primary = self
            .primary
            .iter()
            .map(|r| {
                JsonObject::new()
                    .string("name", &r.name)
                    .number("epoch", r.epoch as f64)
                    .string("version", &r.version)
                    .string("release", &r.release)
                    .string("arch", r.arch.as_str())
                    .string("summary", &r.summary)
                    .number("size_bytes", r.size_bytes as f64)
                    .strings("provides", &r.provides)
                    .strings("requires", &r.requires)
                    .string("location", &r.location)
                    .build()
            })
            .collect();
        JsonObject::new()
            .string("repo_id", &self.repo_id)
            .number("revision", self.revision as f64)
            .number("package_count", self.package_count as f64)
            .number("total_size_bytes", self.total_size_bytes as f64)
            .field("primary", JsonValue::Array(primary))
            .build()
            .to_string_pretty()
    }

    /// Parse the on-wire form.
    pub fn from_json(s: &str) -> Result<Self, MetadataError> {
        let doc = JsonValue::parse(s)?;
        let shape = |m: &str| MetadataError::Shape(m.to_string());
        let str_field = |v: &JsonValue, key: &str| -> Result<String, MetadataError> {
            Ok(v.get(key)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| shape(&format!("missing string field '{key}'")))?
                .to_string())
        };
        let u64_field = |v: &JsonValue, key: &str| -> Result<u64, MetadataError> {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| shape(&format!("missing numeric field '{key}'")))
        };
        let strings_field = |v: &JsonValue, key: &str| -> Result<Vec<String>, MetadataError> {
            v.get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| shape(&format!("missing array field '{key}'")))?
                .iter()
                .map(|item| {
                    item.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| shape(&format!("non-string item in '{key}'")))
                })
                .collect()
        };

        let mut primary = Vec::new();
        for rec in doc
            .get("primary")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| shape("missing array field 'primary'"))?
        {
            let arch_s = str_field(rec, "arch")?;
            primary.push(PrimaryRecord {
                name: str_field(rec, "name")?,
                epoch: u64_field(rec, "epoch")? as u32,
                version: str_field(rec, "version")?,
                release: str_field(rec, "release")?,
                arch: arch_s
                    .parse::<Arch>()
                    .map_err(|_| shape(&format!("unknown arch '{arch_s}'")))?,
                summary: str_field(rec, "summary")?,
                size_bytes: u64_field(rec, "size_bytes")?,
                provides: strings_field(rec, "provides")?,
                requires: strings_field(rec, "requires")?,
                location: str_field(rec, "location")?,
            });
        }
        Ok(RepoMetadata {
            repo_id: str_field(&doc, "repo_id")?,
            revision: u64_field(&doc, "revision")?,
            package_count: u64_field(&doc, "package_count")? as usize,
            total_size_bytes: u64_field(&doc, "total_size_bytes")?,
            primary,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcbc_rpm::PackageBuilder;

    fn repo() -> Repository {
        let mut r = Repository::new("xsede", "XSEDE repo");
        r.add_package(
            PackageBuilder::new("gromacs", "4.6.5", "2.el6")
                .summary("molecular dynamics")
                .requires_simple("openmpi")
                .size_mb(50)
                .build(),
        );
        r.add_package(
            PackageBuilder::new("openmpi", "1.6.5", "1.el6")
                .size_mb(40)
                .build(),
        );
        r
    }

    #[test]
    fn generate_counts_and_sizes() {
        let md = repo().metadata();
        assert_eq!(md.package_count, 2);
        assert_eq!(md.total_size_bytes, 90 << 20);
        assert_eq!(md.repo_id, "xsede");
    }

    #[test]
    fn records_sorted_and_self_provide_included() {
        let md = repo().metadata();
        assert_eq!(md.primary[0].name, "gromacs");
        assert!(md.primary[0]
            .provides
            .iter()
            .any(|p| p.starts_with("gromacs =")));
        assert_eq!(md.primary[0].requires, vec!["openmpi"]);
        assert!(md.primary[0].location.ends_with(".rpm"));
    }

    #[test]
    fn json_roundtrip() {
        let md = repo().metadata();
        let json = md.to_json();
        let back = RepoMetadata::from_json(&json).unwrap();
        assert_eq!(back, md);
    }

    #[test]
    fn deep_nesting_is_a_json_error() {
        match RepoMetadata::from_json(&"[".repeat(1_000_000)) {
            Err(MetadataError::Json(e)) => assert!(e.message.contains("nesting")),
            other => panic!("expected a nesting error, got {other:?}"),
        }
    }
}

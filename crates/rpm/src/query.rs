//! `rpm -q` query formatting.
//!
//! The training curriculum has students interrogate nodes with
//! `rpm -qa`, `rpm -qi`, `rpm -ql`, and `--queryformat`; the
//! compatibility tooling and lab graders consume the same output.

use crate::db::RpmDb;
use crate::package::Package;

/// `rpm -qa`: every installed package as `name-version-release.arch`,
/// sorted by name.
pub fn query_all(db: &RpmDb) -> Vec<String> {
    let mut out: Vec<String> = db.iter().map(|ip| ip.package.nevra.to_string()).collect();
    out.sort();
    out
}

/// `rpm -qi <pkg>`: the information block.
pub fn query_info(p: &Package) -> String {
    format!(
        "Name        : {}\n\
         Epoch       : {}\n\
         Version     : {}\n\
         Release     : {}\n\
         Architecture: {}\n\
         Group       : {}\n\
         Size        : {}\n\
         License     : {}\n\
         Summary     : {}\n",
        p.name(),
        p.evr().epoch,
        p.evr().version,
        p.evr().release,
        p.arch(),
        p.group.label(),
        p.size_bytes,
        p.license,
        p.summary,
    )
}

/// `rpm -ql <pkg>`: the file list.
pub fn query_files(p: &Package) -> String {
    if p.files.is_empty() {
        "(contains no files)\n".to_string()
    } else {
        let mut files = p.files.clone();
        files.sort();
        files.join("\n") + "\n"
    }
}

/// `rpm -q --queryformat <fmt>`: supports the common tags
/// `%{NAME}`, `%{VERSION}`, `%{RELEASE}`, `%{ARCH}`, `%{EPOCH}`,
/// `%{SIZE}`, `%{SUMMARY}`, `%{GROUP}`, `%{LICENSE}` and `\n`/`\t`.
pub fn query_format(p: &Package, fmt: &str) -> String {
    fmt.replace("%{NAME}", p.name())
        .replace("%{VERSION}", &p.evr().version)
        .replace("%{RELEASE}", &p.evr().release)
        .replace("%{ARCH}", p.arch().as_str())
        .replace("%{EPOCH}", &p.evr().epoch.to_string())
        .replace("%{SIZE}", &p.size_bytes.to_string())
        .replace("%{SUMMARY}", &p.summary)
        .replace("%{GROUP}", p.group.label())
        .replace("%{LICENSE}", &p.license)
        .replace("\\n", "\n")
        .replace("\\t", "\t")
}

/// `rpm -qf <path>`: which installed package owns a file?
pub fn query_file_owner<'a>(db: &'a RpmDb, path: &str) -> Option<&'a Package> {
    db.whatprovides(&crate::dep::Dependency::any(path))
        .first()
        .map(|ip| &*ip.package)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PackageBuilder;
    use crate::package::PackageGroup;

    fn sample() -> Package {
        PackageBuilder::new("gromacs", "4.6.5", "2.el6")
            .group(PackageGroup::ScientificApplications)
            .summary("GROMACS molecular dynamics")
            .license("GPLv2")
            .size_mb(50)
            .file("/usr/bin/mdrun")
            .file("/usr/bin/grompp")
            .build()
    }

    #[test]
    fn qa_sorted() {
        let mut db = RpmDb::new();
        db.install(PackageBuilder::new("zsh", "4.3.11", "4").build());
        db.install(PackageBuilder::new("bash", "4.1.2", "15").build());
        assert_eq!(
            query_all(&db),
            vec!["bash-4.1.2-15.x86_64", "zsh-4.3.11-4.x86_64"]
        );
    }

    #[test]
    fn qi_block() {
        let info = query_info(&sample());
        assert!(info.contains("Name        : gromacs"));
        assert!(info.contains("Version     : 4.6.5"));
        assert!(info.contains("License     : GPLv2"));
        assert!(info.contains("Group       : Scientific Applications"));
    }

    #[test]
    fn ql_sorted_and_empty() {
        let files = query_files(&sample());
        assert_eq!(files, "/usr/bin/grompp\n/usr/bin/mdrun\n");
        let none = query_files(&PackageBuilder::new("meta", "1", "1").build());
        assert!(none.contains("no files"));
    }

    #[test]
    fn queryformat_tags() {
        let out = query_format(&sample(), "%{NAME}\\t%{VERSION}-%{RELEASE}.%{ARCH}\\n");
        assert_eq!(out, "gromacs\t4.6.5-2.el6.x86_64\n");
        let out = query_format(&sample(), "%{EPOCH}:%{SIZE}");
        assert_eq!(out, format!("0:{}", 50 << 20));
    }

    #[test]
    fn qf_owner() {
        let mut db = RpmDb::new();
        db.install(sample());
        assert_eq!(
            query_file_owner(&db, "/usr/bin/mdrun").unwrap().name(),
            "gromacs"
        );
        assert!(query_file_owner(&db, "/no/such").is_none());
    }
}

//! Property test for the XSEDE-compatibility grade: the merge-walk
//! [`check_compatibility`] agrees with a naive grade built only from the
//! public per-entry lookups (`RpmDb::newest`, `RpmDb::provides`,
//! `rpmvercmp`) on random host databases.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use xcbc_core::catalog::xsede_reference;
use xcbc_core::compat::{check_compatibility, CompatIssue, CompatReport};
use xcbc_rpm::{rpmvercmp, Dependency, Evr, PackageBuilder, RpmDb};

/// The grade entry by entry, in reference order: one `newest` lookup
/// per package and one `provides` lookup per path.
fn naive_grade(db: &RpmDb) -> CompatReport {
    let reference = xsede_reference();
    let mut issues = Vec::new();
    let mut matching = 0;
    for entry in reference {
        let before = issues.len();
        match db.newest(entry.name) {
            None => issues.push(CompatIssue::Missing {
                package: entry.name.to_string(),
            }),
            Some(ip) => {
                let installed = &ip.package.evr().version;
                if rpmvercmp(installed, &Evr::parse(entry.version).version) != Ordering::Equal {
                    issues.push(CompatIssue::WrongVersion {
                        package: entry.name.to_string(),
                        installed: installed.clone(),
                        reference: entry.version.to_string(),
                    });
                }
                for path in entry.paths {
                    if !db.provides(&Dependency::parse(path)) {
                        issues.push(CompatIssue::MissingPath {
                            package: entry.name.to_string(),
                            path: path.to_string(),
                        });
                    }
                }
            }
        }
        if issues.len() == before {
            matching += 1;
        }
    }
    CompatReport {
        checked: reference.len(),
        matching,
        score: matching as f64 / reference.len() as f64,
        issues,
    }
}

fn pick<'s, T>(rng: &mut StdRng, from: &'s [T]) -> &'s T {
    &from[rng.gen_range(0..from.len())]
}

/// `version` with a zero put in front of its first digit run: a
/// different string that `rpmvercmp` still calls equal (`1.0` vs `01.0`).
fn zero_padded(version: &str) -> String {
    match version.find(|c: char| c.is_ascii_digit()) {
        Some(at) => format!("{}0{}", &version[..at], &version[at..]),
        None => version.to_string(),
    }
}

/// A version at the reference, equal to it under `rpmvercmp` but not
/// byte-equal, or different from it.
fn random_version(rng: &mut StdRng, reference: &str) -> String {
    match rng.gen_range(0u32..4) {
        0 => reference.to_string(),
        1 => zero_padded(reference),
        2 => format!("{reference}.{}", rng.gen_range(1u32..3)),
        _ => format!("0.{}", rng.gen_range(1u32..9)),
    }
}

/// A name that sorts next to `name` without being it.
fn decoy(rng: &mut StdRng, name: &str) -> String {
    match rng.gen_range(0u32..4) {
        0 => format!("{name}-"),
        1 => format!("{name}0"),
        2 if name.len() > 1 => name[..name.len() - 1].to_string(),
        _ => format!("{name}-devel"),
    }
}

/// A host database built from the reference: each package absent,
/// installed at a matching or differing version (at any epoch, some
/// twice in either EVR order), with some of its paths or moved ones,
/// plus decoy packages that own reference paths under names sorting
/// beside reference names.
fn random_db(seed: u64) -> RpmDb {
    let mut rng = StdRng::seed_from_u64(seed);
    let reference = xsede_reference();
    let all_paths: Vec<&str> = reference
        .iter()
        .flat_map(|e| e.paths.iter().copied())
        .collect();
    let absent = rng.gen_range(0.0..0.6);
    let mut db = RpmDb::new();
    for entry in reference {
        if rng.gen_bool(absent) {
            continue;
        }
        let instances = if rng.gen_bool(0.2) { 2 } else { 1 };
        let first = random_version(&mut rng, entry.version);
        for n in 0..instances {
            // A second instance repeats the first version, zero-padded
            // (equal EVR, so the tie-break decides), or picks its own.
            let version = match (n, rng.gen_range(0u32..3)) {
                (0, _) => first.clone(),
                (_, 0) => zero_padded(&first),
                _ => random_version(&mut rng, entry.version),
            };
            let mut b = PackageBuilder::new(entry.name, &version, "1.el6")
                .epoch(*pick(&mut rng, &[0, 0, 1]));
            for path in entry.paths {
                if rng.gen_bool(0.8) {
                    b = b.file(*path);
                } else if rng.gen_bool(0.5) {
                    b = b.file(format!("/opt/apps{path}"));
                }
            }
            db.install(b.build());
        }
    }
    for _ in 0..rng.gen_range(0usize..12) {
        let near = pick(&mut rng, reference).name;
        let name = decoy(&mut rng, near);
        let mut b = PackageBuilder::new(&name, &rng.gen_range(1u32..5).to_string(), "1");
        for _ in 0..rng.gen_range(0usize..4) {
            b = b.file(*pick(&mut rng, &all_paths));
        }
        db.install(b.build());
    }
    db
}

fn agrees_with_naive_grade(db: &RpmDb) -> Result<(), String> {
    let (fast, naive) = (check_compatibility(db), naive_grade(db));
    if (fast.checked, fast.matching) != (naive.checked, naive.matching) {
        return Err(format!(
            "checked/matching {}/{} != naive {}/{}",
            fast.checked, fast.matching, naive.checked, naive.matching
        ));
    }
    if fast.score != naive.score {
        return Err(format!("score {} != naive {}", fast.score, naive.score));
    }
    if fast.issues != naive.issues || fast.render() != naive.render() {
        return Err(format!(
            "report differs:\n{}naive:\n{}",
            fast.render(),
            naive.render()
        ));
    }
    Ok(())
}

#[test]
fn edge_databases_agree_with_naive_grade() {
    let full = || {
        let mut db = RpmDb::new();
        for entry in xsede_reference() {
            db.install(
                PackageBuilder::new(entry.name, entry.version, "1")
                    .files(entry.paths.iter().copied())
                    .build(),
            );
        }
        db
    };
    let mut shared = full();
    let owner = &xsede_reference()[0];
    shared.install(
        PackageBuilder::new(&format!("{}-", owner.name), "1", "1")
            .files(owner.paths.iter().copied())
            .build(),
    );
    for db in [RpmDb::new(), full(), shared] {
        let outcome = agrees_with_naive_grade(&db);
        assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The shim does not shrink, so a failure names the seed that
    /// rebuilds its database.
    #[test]
    fn merge_walk_agrees_with_naive_grade(seed in any::<u64>()) {
        let outcome = agrees_with_naive_grade(&random_db(seed));
        prop_assert!(outcome.is_ok(), "seed {seed}: {}", outcome.unwrap_err());
    }
}

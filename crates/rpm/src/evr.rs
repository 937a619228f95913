//! Epoch-Version-Release handling and the `rpmvercmp` ordering algorithm.
//!
//! This is a faithful reimplementation of RPM's segment-wise version
//! comparison, including tilde (`~`) pre-release ordering and caret (`^`)
//! post-release ordering, so that the Yum layer above resolves "newest
//! candidate" exactly the way a CentOS 6.5 system (the XCBC base OS) would.

use std::cmp::Ordering;
use std::fmt;

/// Compare two RPM version strings segment by segment.
///
/// Mirrors `lib/rpmvercmp.c`:
///
/// * non-alphanumeric separators are skipped (but counted for the
///   tilde/caret rules);
/// * `~` sorts *before* everything, including end-of-string
///   (`1.0~rc1 < 1.0`);
/// * `^` sorts *after* end-of-string but before a new numeric segment
///   (`1.0 < 1.0^git1 < 1.0.1`);
/// * maximal runs of digits or of letters form segments;
/// * a numeric segment always beats an alphabetic one;
/// * numeric segments compare by value (leading zeros stripped, length
///   first, then lexicographically — this handles arbitrarily long digit
///   runs without overflow);
/// * alphabetic segments compare byte-lexicographically.
///
/// ```
/// use std::cmp::Ordering;
/// use xcbc_rpm::rpmvercmp;
/// assert_eq!(rpmvercmp("1.0", "1.0"), Ordering::Equal);
/// assert_eq!(rpmvercmp("1.10", "1.9"), Ordering::Greater);
/// assert_eq!(rpmvercmp("1.0~rc1", "1.0"), Ordering::Less);
/// assert_eq!(rpmvercmp("2.7a", "2.7"), Ordering::Greater);
/// ```
pub fn rpmvercmp(a: &str, b: &str) -> Ordering {
    if a == b {
        return Ordering::Equal;
    }
    let a = a.as_bytes();
    let b = b.as_bytes();
    let (mut i, mut j) = (0usize, 0usize);

    loop {
        // Skip separators (anything that is not alnum, tilde, or caret).
        while i < a.len() && !a[i].is_ascii_alphanumeric() && a[i] != b'~' && a[i] != b'^' {
            i += 1;
        }
        while j < b.len() && !b[j].is_ascii_alphanumeric() && b[j] != b'~' && b[j] != b'^' {
            j += 1;
        }

        // Tilde: sorts before everything, even the end of string.
        let a_tilde = i < a.len() && a[i] == b'~';
        let b_tilde = j < b.len() && b[j] == b'~';
        if a_tilde || b_tilde {
            if a_tilde && b_tilde {
                i += 1;
                j += 1;
                continue;
            }
            return if a_tilde {
                Ordering::Less
            } else {
                Ordering::Greater
            };
        }

        // Caret: newer than the bare version, older than any longer suffix.
        let a_caret = i < a.len() && a[i] == b'^';
        let b_caret = j < b.len() && b[j] == b'^';
        if a_caret || b_caret {
            if a_caret && b_caret {
                i += 1;
                j += 1;
                continue;
            }
            // `1.0^x` vs `1.0` → the caret side is newer; `1.0^x` vs `1.0.1`
            // → the caret side is older (the other side still has content).
            return if a_caret {
                if j < b.len() {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            } else if i < a.len() {
                Ordering::Greater
            } else {
                Ordering::Less
            };
        }

        if i >= a.len() || j >= b.len() {
            break;
        }

        // Grab the next maximal digit or alpha segment from each side.
        let a_digit = a[i].is_ascii_digit();
        let start_i = i;
        if a_digit {
            while i < a.len() && a[i].is_ascii_digit() {
                i += 1;
            }
        } else {
            while i < a.len() && a[i].is_ascii_alphabetic() {
                i += 1;
            }
        }
        let b_digit = b[j].is_ascii_digit();
        let start_j = j;
        if b_digit {
            while j < b.len() && b[j].is_ascii_digit() {
                j += 1;
            }
        } else {
            while j < b.len() && b[j].is_ascii_alphabetic() {
                j += 1;
            }
        }

        // If the segment types differ, the numeric one is newer.
        if a_digit != b_digit {
            // RPM: "a numeric segment is always newer than an alpha segment".
            // (When types differ, `b` holding the digits means `b` is newer.)
            return if a_digit {
                Ordering::Greater
            } else {
                Ordering::Less
            };
        }

        let seg_a = &a[start_i..i];
        let seg_b = &b[start_j..j];
        let ord = if a_digit {
            cmp_numeric(seg_a, seg_b)
        } else {
            seg_a.cmp(seg_b)
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }

    // One string exhausted: the one with content left is newer.
    match (i < a.len(), j < b.len()) {
        (false, false) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (true, true) => unreachable!("loop only exits when a side is exhausted"),
    }
}

/// Compare two ASCII digit runs by numeric value without parsing to an
/// integer (digit runs in release strings can exceed `u64`).
fn cmp_numeric(a: &[u8], b: &[u8]) -> Ordering {
    let a = strip_leading_zeros(a);
    let b = strip_leading_zeros(b);
    a.len().cmp(&b.len()).then_with(|| a.cmp(b))
}

fn strip_leading_zeros(s: &[u8]) -> &[u8] {
    let n = s.iter().take_while(|&&c| c == b'0').count();
    if n == s.len() {
        &s[s.len().saturating_sub(1)..]
    } else {
        &s[n..]
    }
}

/// A full `epoch:version-release` triple, the unit of RPM ordering.
///
/// Epoch dominates, then version, then release, each compared with
/// [`rpmvercmp`]. A missing epoch is epoch 0.
///
/// Equality and hashing follow the comparator, not the raw strings:
/// `rpmvercmp` treats `"1.05"` and `"1.5"` (and `"1.0"` / `"1..0"`) as
/// equal, so a derived structural `PartialEq` would disagree with
/// [`Ord`] and break the total-order contract (`a == b` iff
/// `a.cmp(&b) == Ordering::Equal`). [`Hash`] is computed over the
/// normalized segment stream so equal values hash equally.
#[derive(Debug, Clone)]
pub struct Evr {
    pub epoch: u32,
    pub version: String,
    pub release: String,
}

impl PartialEq for Evr {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Evr {}

impl std::hash::Hash for Evr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.epoch.hash(state);
        hash_vercmp_segments(&self.version, state);
        hash_vercmp_segments(&self.release, state);
    }
}

/// Feed a version string into a hasher as the segment stream
/// [`rpmvercmp`] actually compares: separators dropped, tilde/caret as
/// markers, digit runs with leading zeros stripped, alpha runs verbatim.
/// Two strings produce the same stream iff `rpmvercmp` calls them equal,
/// which is exactly the `Eq`/`Hash` consistency `Evr` needs.
fn hash_vercmp_segments<H: std::hash::Hasher>(s: &str, state: &mut H) {
    let b = s.as_bytes();
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        if c == b'~' {
            state.write_u8(1);
            i += 1;
        } else if c == b'^' {
            state.write_u8(2);
            i += 1;
        } else if c.is_ascii_digit() {
            let start = i;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            state.write_u8(3);
            state.write(strip_leading_zeros(&b[start..i]));
            state.write_u8(0);
        } else if c.is_ascii_alphabetic() {
            let start = i;
            while i < b.len() && b[i].is_ascii_alphabetic() {
                i += 1;
            }
            state.write_u8(4);
            state.write(&b[start..i]);
            state.write_u8(0);
        } else {
            // separator: skipped by the comparator, skipped here
            i += 1;
        }
    }
}

impl Evr {
    /// Construct from explicit parts.
    pub fn new(epoch: u32, version: impl Into<String>, release: impl Into<String>) -> Self {
        Evr {
            epoch,
            version: version.into(),
            release: release.into(),
        }
    }

    /// Parse `"[epoch:]version[-release]"`.
    ///
    /// ```
    /// use xcbc_rpm::Evr;
    /// let e = Evr::parse("2:4.6.5-2.el6");
    /// assert_eq!((e.epoch, e.version.as_str(), e.release.as_str()), (2, "4.6.5", "2.el6"));
    /// assert_eq!(Evr::parse("1.0").release, "");
    /// ```
    pub fn parse(s: &str) -> Self {
        let (epoch, rest) = match s.split_once(':') {
            Some((e, rest)) => (e.parse::<u32>().unwrap_or(0), rest),
            None => (0, s),
        };
        // The release is everything after the *last* dash so versions like
        // "1.0-rc1-3.el6" keep "1.0-rc1" as the version part.
        match rest.rsplit_once('-') {
            Some((v, r)) => Evr::new(epoch, v, r),
            None => Evr::new(epoch, rest, ""),
        }
    }

    /// Version-release form without the epoch.
    pub fn vr(&self) -> String {
        if self.release.is_empty() {
            self.version.clone()
        } else {
            format!("{}-{}", self.version, self.release)
        }
    }
}

impl fmt::Display for Evr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.epoch != 0 {
            write!(f, "{}:", self.epoch)?;
        }
        write!(f, "{}", self.vr())
    }
}

impl PartialOrd for Evr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Evr {
    fn cmp(&self, other: &Self) -> Ordering {
        self.epoch
            .cmp(&other.epoch)
            .then_with(|| rpmvercmp(&self.version, &other.version))
            .then_with(|| rpmvercmp(&self.release, &other.release))
    }
}

impl From<&str> for Evr {
    fn from(s: &str) -> Self {
        Evr::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lt(a: &str, b: &str) {
        assert_eq!(rpmvercmp(a, b), Ordering::Less, "{a} should be < {b}");
        assert_eq!(rpmvercmp(b, a), Ordering::Greater, "{b} should be > {a}");
    }

    fn eq(a: &str, b: &str) {
        assert_eq!(rpmvercmp(a, b), Ordering::Equal, "{a} should == {b}");
    }

    #[test]
    fn equal_strings() {
        eq("1.0", "1.0");
        eq("", "");
        eq("2.7", "2.7");
    }

    #[test]
    fn simple_numeric() {
        lt("1.0", "2.0");
        lt("2.0", "2.0.1");
        lt("2.0.1", "2.0.1a");
        lt("1.9", "1.10");
        lt("5.5p9", "5.5p10");
    }

    #[test]
    fn leading_zeros_ignored() {
        eq("1.05", "1.5");
        eq("0001", "1");
        lt("1.05", "1.06");
    }

    #[test]
    fn huge_digit_runs_do_not_overflow() {
        lt("99999999999999999999998", "99999999999999999999999");
        eq("000099999999999999999999999", "99999999999999999999999");
    }

    #[test]
    fn alpha_vs_numeric() {
        // numeric segment is newer than alpha segment
        lt("1.0a", "1.01");
        lt("a", "1");
        lt("xyz", "1");
    }

    #[test]
    fn separators_are_skipped() {
        eq("1.0", "1_0");
        eq("2.0.1", "2_0.1");
        eq("5.5-p9", "5.5p9");
    }

    #[test]
    fn tilde_sorts_before_release() {
        lt("1.0~rc1", "1.0");
        lt("1.0~rc1", "1.0~rc2");
        eq("1.0~rc1", "1.0~rc1");
        lt("1.0~~", "1.0~");
        lt("1.0~rc1", "1.0arc1");
    }

    #[test]
    fn caret_sorts_after_release_before_suffix() {
        lt("1.0", "1.0^git1");
        lt("1.0^git1", "1.0.1");
        lt("1.0^git1", "1.0^git2");
        eq("1.0^git1", "1.0^git1");
        lt("1.0~rc1", "1.0^git1");
    }

    #[test]
    fn longer_string_wins_when_prefix_equal() {
        lt("1.5", "1.5.1");
        lt("2.7", "2.7a");
    }

    #[test]
    fn evr_parse_roundtrip() {
        let e = Evr::parse("2:4.6.5-2.el6");
        assert_eq!(e.to_string(), "2:4.6.5-2.el6");
        let e = Evr::parse("1.6.5-1.el6");
        assert_eq!(e.to_string(), "1.6.5-1.el6");
        assert_eq!(e.epoch, 0);
        let e = Evr::parse("3.0");
        assert_eq!(e.to_string(), "3.0");
        assert_eq!(e.release, "");
    }

    #[test]
    fn evr_version_with_dash() {
        let e = Evr::parse("1.0-rc1-3.el6");
        assert_eq!(e.version, "1.0-rc1");
        assert_eq!(e.release, "3.el6");
    }

    #[test]
    fn evr_ordering_epoch_dominates() {
        assert!(Evr::parse("1:0.1-1") > Evr::parse("99.9-9"));
        assert!(Evr::parse("2:1.0-1") > Evr::parse("1:9.0-1"));
    }

    #[test]
    fn evr_ordering_version_then_release() {
        assert!(Evr::parse("1.2-1") < Evr::parse("1.10-1"));
        assert!(Evr::parse("1.2-1.el6") < Evr::parse("1.2-2.el6"));
        assert_eq!(Evr::parse("1.2-1"), Evr::parse("1.2-1"));
    }

    // Classic fixture pairs from RPM's own test suite.
    #[test]
    fn rpm_upstream_fixtures() {
        eq("1.0", "1.0");
        lt("1.0", "2.0");
        eq("2.0.1", "2.0.1");
        lt("2.0", "2.0.1");
        eq("5.5p1", "5.5p1");
        lt("5.5p1", "5.5p2");
        lt("5.5p1", "5.5p10");
        eq("10xyz", "10xyz");
        lt(
            "10.1xyz",
            "10.1abc"
                .replace("abc", "xyz")
                .replace("xyz", "zzz")
                .as_str(),
        );
        eq("xyz10", "xyz10");
        lt("xyz10", "xyz10.1");
        lt("xyz.4", "8");
        lt("xyz.4", "2");
        lt("5.5p2", "5.6p1");
        lt("5.e5p1", "5.5p1");
        lt("6.5p17", "10xyz");
    }

    /// rpmvercmp edge cases that historically trip reimplementations:
    /// leading zeros, tilde pre-releases, caret post-releases, mixed
    /// alpha/numeric splits, separator runs, and epoch dominance.
    #[test]
    fn rpmvercmp_edge_case_table() {
        // leading zeros: numeric value wins, so these are *equal*
        eq("1.05", "1.5");
        eq("1.001", "1.1");
        eq("0.0", "00.000");
        lt("1.05", "1.6");
        // separators collapse
        eq("1.0", "1..0");
        eq("1.0", "1.0.");
        eq("fc4", "fc.4");
        eq("2-0", "2_0");
        // tilde sorts before everything, even end-of-string
        lt("1.0~rc1", "1.0");
        eq("1.0~rc1", "1.0~rc1");
        lt("1.0~rc1", "1.0~rc2");
        lt("1.0~rc1~git123", "1.0~rc1");
        lt("1.0~~", "1.0~");
        // caret sorts after end-of-string, before a longer suffix
        lt("1.0", "1.0^");
        eq("1.0^", "1.0^");
        lt("1.0^git1", "1.0^git2");
        lt("1.0^", "1.0^git1");
        lt("1.0^git1", "1.01");
        lt("1.0^20160101", "1.0.1");
        // tilde beats caret
        lt("1.0~rc1", "1.0^git1");
        lt("1.0^git1~pre", "1.0^git1");
        // alpha vs numeric splits: a numeric segment is always newer
        lt("1.0a", "1.0.1");
        lt("a", "1");
        lt("2a", "2.0");
        lt("1.0gamma", "1.0.1");
        // longer alpha run compares lexicographically
        lt("alpha", "beta");
        lt("Z", "a");
        // big digit runs (no integer overflow)
        lt("20101121", "99999999999999999999999999999999");
        eq("00000000000000000000000000000001", "000001");
        // epoch dominates version and release
        assert!(Evr::parse("1:1.0-1") > Evr::parse("0:99.0-99"));
        assert!(Evr::parse("2.0-1") < Evr::parse("1:0.1-1"));
    }

    /// `Evr` equality/hash must agree with the comparator: rpmvercmp
    /// calls `"1.05"` and `"1.5"` equal, so the `Evr`s must be `==` and
    /// hash identically (they are keys in newest-candidate selection).
    #[test]
    fn evr_eq_and_hash_follow_rpmvercmp() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn h(e: &Evr) -> u64 {
            let mut s = DefaultHasher::new();
            e.hash(&mut s);
            s.finish()
        }
        let pairs = [
            ("1.05-1", "1.5-1"),
            ("1.0-1", "1..0-1"),
            ("1.0-01", "1.0-1"),
            ("fc4-0", "fc.4-0"),
            ("0:1.0-1", "1.0-1"),
        ];
        for (a, b) in pairs {
            let (ea, eb) = (Evr::parse(a), Evr::parse(b));
            assert_eq!(ea.cmp(&eb), Ordering::Equal, "{a} vs {b}");
            assert_eq!(ea, eb, "{a} vs {b} must be ==");
            assert_eq!(h(&ea), h(&eb), "{a} vs {b} must hash equal");
        }
        assert_ne!(Evr::parse("1.0-1"), Evr::parse("1.0-2"));
        assert_ne!(Evr::parse("1:1.0-1"), Evr::parse("1.0-1"));
    }

    // --- property tests: rpmvercmp is a total order ---

    use proptest::prelude::*;

    /// Strings drawn from the alphabet rpmvercmp actually sees: digits
    /// (with leading zeros), letters, separators, tilde, caret. A small
    /// alphabet keeps collisions (and thus Equal outcomes) frequent, so
    /// the transitivity/Eq branches are actually exercised.
    const VERSION_STRATEGY: &str = "[012ab.~^_-]{0,6}";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn vercmp_reflexive(a in VERSION_STRATEGY) {
            prop_assert_eq!(rpmvercmp(&a, &a), Ordering::Equal);
        }

        #[test]
        fn vercmp_antisymmetric(a in VERSION_STRATEGY, b in VERSION_STRATEGY) {
            prop_assert_eq!(rpmvercmp(&a, &b), rpmvercmp(&b, &a).reverse());
        }

        #[test]
        fn vercmp_transitive(
            a in VERSION_STRATEGY,
            b in VERSION_STRATEGY,
            c in VERSION_STRATEGY,
        ) {
            use Ordering::*;
            let (ab, bc, ac) = (rpmvercmp(&a, &b), rpmvercmp(&b, &c), rpmvercmp(&a, &c));
            if ab != Greater && bc != Greater {
                prop_assert_ne!(ac, Greater, "{} <= {} <= {} but {} > {}", a, b, c, a, c);
            }
            if ab == Equal && bc == Equal {
                prop_assert_eq!(ac, Equal);
            }
        }

        #[test]
        fn evr_eq_hash_consistent(a in VERSION_STRATEGY, b in VERSION_STRATEGY) {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let ea = Evr::new(0, a.clone(), "1");
            let eb = Evr::new(0, b.clone(), "1");
            let equal_by_cmp = ea.cmp(&eb) == Ordering::Equal;
            prop_assert_eq!(ea == eb, equal_by_cmp, "Eq must follow Ord for {} vs {}", a, b);
            if equal_by_cmp {
                let mut ha = DefaultHasher::new();
                let mut hb = DefaultHasher::new();
                ea.hash(&mut ha);
                eb.hash(&mut hb);
                prop_assert_eq!(ha.finish(), hb.finish(), "equal Evrs must hash equal");
            }
        }
    }
}

//! Package architectures and compatibility.
//!
//! XCBC targets x86_64 CentOS (the paper stresses that Raspberry-Pi-class
//! ARM systems are "not based on the x86 instruction set" and therefore
//! unsuitable); we model the small architecture lattice a CentOS 6 yum
//! stack actually deals with.

use std::fmt;

/// Machine architecture of a package or host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Arch {
    /// 64-bit x86 — the XSEDE/XCBC baseline.
    X86_64,
    /// 32-bit x86, installable on x86_64 hosts (multilib).
    I686,
    /// Architecture-independent (scripts, data, Java).
    Noarch,
    /// Source package.
    Src,
    /// ARM (e.g. Raspberry Pi) — present so we can model *incompatibility*.
    Armv7,
}

impl Arch {
    /// Can a package of architecture `self` be installed on a host of
    /// architecture `host`?
    ///
    /// ```
    /// use xcbc_rpm::Arch;
    /// assert!(Arch::Noarch.installable_on(Arch::X86_64));
    /// assert!(Arch::I686.installable_on(Arch::X86_64));
    /// assert!(!Arch::X86_64.installable_on(Arch::Armv7));
    /// ```
    pub fn installable_on(self, host: Arch) -> bool {
        match self {
            Arch::Noarch => true,
            Arch::Src => false,
            Arch::X86_64 => host == Arch::X86_64,
            Arch::I686 => matches!(host, Arch::X86_64 | Arch::I686),
            Arch::Armv7 => host == Arch::Armv7,
        }
    }

    /// Preference score when several candidates provide the same thing:
    /// native 64-bit beats multilib 32-bit beats noarch ties.
    pub fn preference_on(self, host: Arch) -> u8 {
        if !self.installable_on(host) {
            return 0;
        }
        match (self, host) {
            (Arch::X86_64, Arch::X86_64) | (Arch::Armv7, Arch::Armv7) => 3,
            (Arch::I686, Arch::I686) => 3,
            (Arch::Noarch, _) => 2,
            (Arch::I686, Arch::X86_64) => 1,
            _ => 1,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Arch::X86_64 => "x86_64",
            Arch::I686 => "i686",
            Arch::Noarch => "noarch",
            Arch::Src => "src",
            Arch::Armv7 => "armv7hl",
        }
    }
}

impl fmt::Display for Arch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noarch_installs_everywhere() {
        for host in [Arch::X86_64, Arch::I686, Arch::Armv7] {
            assert!(Arch::Noarch.installable_on(host));
        }
    }

    #[test]
    fn src_installs_nowhere() {
        for host in [Arch::X86_64, Arch::I686, Arch::Armv7] {
            assert!(!Arch::Src.installable_on(host));
        }
    }

    #[test]
    fn multilib() {
        assert!(Arch::I686.installable_on(Arch::X86_64));
        assert!(!Arch::X86_64.installable_on(Arch::I686));
    }

    #[test]
    fn arm_is_isolated() {
        assert!(!Arch::Armv7.installable_on(Arch::X86_64));
        assert!(!Arch::X86_64.installable_on(Arch::Armv7));
        assert!(Arch::Armv7.installable_on(Arch::Armv7));
    }

    #[test]
    fn native_preferred_over_multilib_over_incompatible() {
        let host = Arch::X86_64;
        assert!(Arch::X86_64.preference_on(host) > Arch::Noarch.preference_on(host));
        assert!(Arch::Noarch.preference_on(host) > Arch::I686.preference_on(host));
        assert_eq!(Arch::Armv7.preference_on(host), 0);
    }
}

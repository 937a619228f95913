//! Scriptlets: the `%pre`/`%post`/`%preun`/`%postun` hooks RPM runs around
//! package install and erase.
//!
//! The paper warns that "updating packages automatically may cause
//! unexpected behavior in a production environment" — the concrete
//! mechanism is almost always a scriptlet with side effects. We model
//! scriptlets as declarative actions with a failure probability knob so the
//! update-strategy experiments in `xcbc-core::update` can inject realistic
//! breakage.

/// When a scriptlet runs relative to the file operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScriptletPhase {
    /// Before the package's files are laid down.
    Pre,
    /// After the package's files are laid down.
    Post,
    /// Before the package's files are removed.
    PreUn,
    /// After the package's files are removed.
    PostUn,
}

impl ScriptletPhase {
    pub fn label(self) -> &'static str {
        match self {
            ScriptletPhase::Pre => "%pre",
            ScriptletPhase::Post => "%post",
            ScriptletPhase::PreUn => "%preun",
            ScriptletPhase::PostUn => "%postun",
        }
    }

    /// Phases that run on install-side elements.
    pub fn is_install_phase(self) -> bool {
        matches!(self, ScriptletPhase::Pre | ScriptletPhase::Post)
    }
}

/// A single scriptlet attached to a package.
#[derive(Debug, Clone, PartialEq)]
pub struct Scriptlet {
    pub phase: ScriptletPhase,
    /// Human-readable description of what the script does
    /// (e.g. "restart pbs_server", "ldconfig", "useradd slurm").
    pub action: String,
    /// Whether the action touches a running service — the paper's
    /// "unexpected behavior" risk concentrates here.
    pub restarts_service: bool,
}

impl Scriptlet {
    pub fn new(phase: ScriptletPhase, action: impl Into<String>) -> Self {
        Scriptlet {
            phase,
            action: action.into(),
            restarts_service: false,
        }
    }

    /// Mark this scriptlet as restarting a service (risky in production).
    pub fn restarting(mut self) -> Self {
        self.restarts_service = true;
        self
    }
}

/// One executed scriptlet in a transaction's trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptletTrace {
    pub package: String,
    pub phase: ScriptletPhase,
    pub action: String,
    pub succeeded: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_labels() {
        assert_eq!(ScriptletPhase::Pre.label(), "%pre");
        assert_eq!(ScriptletPhase::PostUn.label(), "%postun");
    }

    #[test]
    fn install_vs_erase_phases() {
        assert!(ScriptletPhase::Pre.is_install_phase());
        assert!(ScriptletPhase::Post.is_install_phase());
        assert!(!ScriptletPhase::PreUn.is_install_phase());
        assert!(!ScriptletPhase::PostUn.is_install_phase());
    }

    #[test]
    fn restarting_flag() {
        let s = Scriptlet::new(ScriptletPhase::Post, "service pbs_server restart").restarting();
        assert!(s.restarts_service);
        let s2 = Scriptlet::new(ScriptletPhase::Post, "ldconfig");
        assert!(!s2.restarts_service);
    }
}

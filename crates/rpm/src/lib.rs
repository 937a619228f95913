//! # xcbc-rpm — RPM package substrate
//!
//! A from-scratch reimplementation of the parts of RPM that the XCBC/XNIT
//! toolchain (CLUSTER 2015) depends on: the `[epoch:]version-release`
//! ordering algorithm (`rpmvercmp`), versioned dependency specs
//! (Provides/Requires/Conflicts/Obsoletes), an installed-package database,
//! and ordered install/erase/upgrade transactions with scriptlet tracing.
//!
//! The paper's XNIT distribution is "based on the Yum repository for
//! installation or updates of RPMs"; everything in the higher layers
//! (`xcbc-yum`, `xcbc-rocks`, `xcbc-core`) is built on the types here.
//!
//! ## Quick example
//!
//! ```
//! use xcbc_rpm::{PackageBuilder, RpmDb, TransactionSet, Evr};
//!
//! let openmpi = PackageBuilder::new("openmpi", "1.6.5", "1.el6")
//!     .summary("Open MPI message passing library")
//!     .provides_simple("mpi")
//!     .build();
//! let gromacs = PackageBuilder::new("gromacs", "4.6.5", "2.el6")
//!     .requires_simple("mpi")
//!     .build();
//!
//! let mut db = RpmDb::new();
//! let mut tx = TransactionSet::new();
//! tx.add_install(openmpi);
//! tx.add_install(gromacs);
//! assert!(tx.check(&db).is_empty());
//! tx.run(&mut db).unwrap();
//! assert!(db.is_installed("gromacs"));
//! assert!(Evr::parse("2:1.0-1") > Evr::parse("1.2-5"));
//! ```

pub mod arch;
pub mod builder;
pub mod db;
pub mod dep;
pub mod evr;
pub mod package;
pub mod scriptlet;
pub mod transaction;

pub use arch::Arch;
pub use builder::PackageBuilder;
pub use db::{InstalledPackage, RpmDb, VerifyProblem};
pub use dep::{DepFlag, Dependency};
pub use evr::{rpmvercmp, Evr};
pub use package::{Nevra, Package, PackageGroup};
pub use scriptlet::{Scriptlet, ScriptletPhase, ScriptletTrace};
pub use transaction::{
    TransactionElement, TransactionError, TransactionProblem, TransactionReport, TransactionSet,
};
pub use xcbc_sim::Fnv64;

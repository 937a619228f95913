//! # xcbc-modules — environment modules substrate
//!
//! Table 1 lists `modules` among the basics, and §4 credits the Montana
//! State administrators with "investigating how to implement software
//! from XCBC in environment modules". This crate reimplements the core
//! of Tcl environment-modules: modulefiles that mutate an environment
//! (prepend-path/setenv), `module avail/load/unload/list` semantics with
//! conflict/prereq checking, and generation of modulefiles from installed
//! RPM packages — the Montana State integration path.
//!
//! ```
//! use xcbc_modules::{Modulefile, ModuleSystem};
//!
//! let mut sys = ModuleSystem::new();
//! sys.add(Modulefile::new("openmpi", "1.6.5")
//!     .prepend_path("PATH", "/usr/lib64/openmpi/bin")
//!     .setenv("MPI_HOME", "/usr/lib64/openmpi"));
//! sys.load("openmpi/1.6.5").unwrap();
//! assert!(sys.env().get("PATH").unwrap().contains("openmpi"));
//! ```

pub mod env;
pub mod modulefile;
pub mod system;

pub use env::Environment;
pub use modulefile::{ModuleAction, Modulefile};
pub use system::{generate_from_rpmdb, ModuleError, ModuleSystem};

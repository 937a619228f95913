//! The XCBC 0.9 software catalog — Tables 1 and 2 of the paper as data.
//!
//! Table 2's point is *run-alike compatibility*: "libraries are in the
//! same place as on XSEDE clusters, versions are the same, and commands
//! work as they do on XSEDE-supported clusters" (Stampede being the
//! reference). Each entry therefore records the reference version and
//! the reference install paths; the [`crate::compat`] checker compares a
//! cluster against exactly this profile.

use std::sync::OnceLock;
use xcbc_rpm::{Package, PackageBuilder, PackageGroup};
use xcbc_sim::Fnv64;

/// One catalog row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogEntry {
    pub name: &'static str,
    /// The Stampede-matched version.
    pub version: &'static str,
    pub group: PackageGroup,
    /// Names of other catalog packages this one requires.
    pub requires: &'static [&'static str],
    /// Key install paths (the XSEDE path convention).
    pub paths: &'static [&'static str],
    pub summary: &'static str,
}

const fn e(
    name: &'static str,
    version: &'static str,
    group: PackageGroup,
    requires: &'static [&'static str],
    paths: &'static [&'static str],
    summary: &'static str,
) -> CatalogEntry {
    CatalogEntry {
        name,
        version,
        group,
        requires,
        paths,
        summary,
    }
}

use PackageGroup::{
    CompilersLibraries as CL, MiscellaneousTools as MT, SchedulerResourceManager as SR,
    ScientificApplications as SA, XsedeTools as XT,
};

/// The full Table 2 catalog (plus the scheduler row and XSEDE tools).
pub static CATALOG: &[CatalogEntry] = &[
    // --- Compilers, libraries, and programming (Table 2, row 1) ---
    e("gcc", "4.4.7", CL, &[], &["/usr/bin/gcc"], "GNU C compiler"),
    e(
        "gcc-gfortran",
        "4.4.7",
        CL,
        &["gcc", "libgfortran"],
        &["/usr/bin/gfortran"],
        "GNU Fortran",
    ),
    e(
        "compat-gcc-34-g77",
        "3.4.6",
        CL,
        &[],
        &["/usr/bin/g77"],
        "Legacy g77 compiler",
    ),
    e(
        "charm",
        "6.5.1",
        CL,
        &["openmpi"],
        &["/usr/local/charm/bin/charmc"],
        "Charm++ parallel runtime",
    ),
    e(
        "fftw2",
        "2.1.5",
        CL,
        &[],
        &["/usr/lib64/libfftw.so.2"],
        "FFTW 2 fast Fourier transforms",
    ),
    e(
        "fftw",
        "3.3.3",
        CL,
        &[],
        &["/usr/lib64/libfftw3.so.3"],
        "FFTW 3 fast Fourier transforms",
    ),
    e(
        "gmp",
        "4.3.1",
        CL,
        &[],
        &["/usr/lib64/libgmp.so.3"],
        "GNU multiple precision arithmetic",
    ),
    e(
        "mpfr",
        "2.4.1",
        CL,
        &["gmp"],
        &["/usr/lib64/libmpfr.so.1"],
        "Multiple-precision floats",
    ),
    e(
        "hdf5",
        "1.8.9",
        CL,
        &[],
        &["/usr/lib64/libhdf5.so", "/usr/bin/h5dump"],
        "HDF5 data model",
    ),
    e(
        "java-1.7.0-openjdk",
        "1.7.0.51",
        CL,
        &["tzdata-java", "jpackage-utils"],
        &["/usr/bin/java"],
        "OpenJDK 7",
    ),
    e(
        "libRmath",
        "3.0.2",
        CL,
        &["R-core"],
        &["/usr/lib64/libRmath.so"],
        "Standalone R math library",
    ),
    e(
        "libRmath-devel",
        "3.0.2",
        CL,
        &["libRmath"],
        &["/usr/include/Rmath.h"],
        "R math headers",
    ),
    e(
        "mpich2",
        "1.4.1p1",
        CL,
        &[],
        &["/usr/lib64/mpich2/bin/mpirun"],
        "MPICH2 MPI implementation",
    ),
    e(
        "openmpi",
        "1.6.5",
        CL,
        &["librdmacm", "libibverbs"],
        &["/usr/lib64/openmpi/bin/mpirun"],
        "Open MPI",
    ),
    e(
        "mpi4py-common",
        "1.3.1",
        CL,
        &["python"],
        &["/usr/lib64/python2.7/site-packages/mpi4py"],
        "Python MPI bindings (common)",
    ),
    e(
        "mpi4py-openmpi",
        "1.3.1",
        CL,
        &["mpi4py-common", "openmpi"],
        &["/usr/lib64/python2.7/site-packages/mpi4py/openmpi"],
        "Python MPI bindings (Open MPI)",
    ),
    e(
        "mpi4py-tools",
        "1.3.1",
        CL,
        &["mpi4py-common"],
        &["/usr/bin/mpi4py-tools"],
        "Python MPI tools",
    ),
    e(
        "psm",
        "3.3",
        CL,
        &[],
        &["/usr/lib64/libpsm_infinipath.so.1"],
        "Intel PSM API",
    ),
    e(
        "numactl",
        "2.0.7",
        CL,
        &[],
        &["/usr/bin/numactl"],
        "NUMA policy control",
    ),
    e(
        "librdmacm",
        "1.0.17",
        CL,
        &[],
        &["/usr/lib64/librdmacm.so.1"],
        "RDMA connection manager",
    ),
    e(
        "libibverbs",
        "1.1.7",
        CL,
        &[],
        &["/usr/lib64/libibverbs.so.1"],
        "InfiniBand verbs",
    ),
    e(
        "papi",
        "5.1.1",
        CL,
        &[],
        &["/usr/bin/papi_avail"],
        "Performance counter API",
    ),
    e(
        "python",
        "2.7.5",
        CL,
        &[],
        &["/usr/bin/python2.7"],
        "Python interpreter",
    ),
    e(
        "tcl",
        "8.5.7",
        CL,
        &[],
        &["/usr/bin/tclsh"],
        "Tcl scripting",
    ),
    e(
        "R",
        "3.0.2",
        CL,
        &["R-core", "R-devel"],
        &["/usr/bin/R"],
        "R metapackage",
    ),
    e(
        "R-core",
        "3.0.2",
        CL,
        &[],
        &["/usr/lib64/R/bin/R"],
        "R interpreter core",
    ),
    e(
        "R-core-devel",
        "3.0.2",
        CL,
        &["R-core"],
        &["/usr/include/R/R.h"],
        "R core headers",
    ),
    e(
        "R-devel",
        "3.0.2",
        CL,
        &["R-core-devel"],
        &["/usr/bin/R-devel"],
        "R development meta",
    ),
    e(
        "R-java",
        "3.0.2",
        CL,
        &["R-core", "java-1.7.0-openjdk"],
        &["/usr/lib64/R/java"],
        "R Java integration",
    ),
    e(
        "R-java-devel",
        "3.0.2",
        CL,
        &["R-java"],
        &["/usr/lib64/R/java/devel"],
        "R Java dev",
    ),
    // --- Scientific applications (Table 2, row 2) ---
    e(
        "bedtools",
        "2.17.0",
        SA,
        &[],
        &["/usr/bin/bedtools"],
        "Genome arithmetic",
    ),
    e(
        "GotoBLAS2",
        "1.13",
        SA,
        &["gcc-gfortran"],
        &["/usr/lib64/libgoto2.so"],
        "GotoBLAS2 optimized BLAS",
    ),
    e(
        "plapack",
        "3.0",
        SA,
        &["openmpi", "GotoBLAS2"],
        &["/usr/lib64/libPLAPACK.so"],
        "Parallel linear algebra",
    ),
    e(
        "pnetcdf",
        "1.4.1",
        SA,
        &["openmpi"],
        &["/usr/lib64/libpnetcdf.so"],
        "Parallel NetCDF",
    ),
    e(
        "abyss",
        "1.3.7",
        SA,
        &["openmpi", "boost", "sparsehash-devel"],
        &["/usr/bin/ABYSS"],
        "Parallel genome assembler",
    ),
    e(
        "arpack",
        "3.1.3",
        SA,
        &["gcc-gfortran"],
        &["/usr/lib64/libarpack.so.2"],
        "Large eigenproblem solver",
    ),
    e(
        "atlas",
        "3.8.4",
        SA,
        &[],
        &["/usr/lib64/atlas/libatlas.so.3"],
        "ATLAS tuned BLAS",
    ),
    e(
        "autodocksuite",
        "4.2.5.1",
        SA,
        &[],
        &["/usr/bin/autodock4"],
        "Molecular docking",
    ),
    e(
        "boost",
        "1.41.0",
        SA,
        &[],
        &["/usr/lib64/libboost_system.so"],
        "Boost C++ libraries",
    ),
    e(
        "bowtie",
        "1.0.0",
        SA,
        &[],
        &["/usr/bin/bowtie"],
        "Short-read aligner",
    ),
    e(
        "bwa",
        "0.7.5a",
        SA,
        &[],
        &["/usr/bin/bwa"],
        "Burrows-Wheeler aligner",
    ),
    e(
        "darshan-runtime-mpich",
        "2.2.8",
        SA,
        &["mpich2"],
        &["/usr/lib64/mpich2/lib/libdarshan.so"],
        "I/O characterization (MPICH)",
    ),
    e(
        "darshan-runtime-openmpi",
        "2.2.8",
        SA,
        &["openmpi"],
        &["/usr/lib64/openmpi/lib/libdarshan.so"],
        "I/O characterization (Open MPI)",
    ),
    e(
        "darshan-util",
        "2.2.8",
        SA,
        &[],
        &["/usr/bin/darshan-parser"],
        "Darshan log tools",
    ),
    e(
        "libgfortran",
        "4.4.7",
        SA,
        &[],
        &["/usr/lib64/libgfortran.so.3"],
        "Fortran runtime",
    ),
    e(
        "libgomp",
        "4.4.7",
        SA,
        &[],
        &["/usr/lib64/libgomp.so.1"],
        "OpenMP runtime",
    ),
    e(
        "elemental",
        "0.81",
        SA,
        &["openmpi"],
        &["/usr/lib64/libelemental.so"],
        "Distributed dense linear algebra",
    ),
    e(
        "espresso-ab",
        "5.0.3",
        SA,
        &["openmpi", "fftw"],
        &["/usr/bin/pw.x"],
        "Quantum ESPRESSO",
    ),
    e(
        "gatk",
        "2.8.1",
        SA,
        &["java-1.7.0-openjdk"],
        &["/usr/share/java/gatk/GenomeAnalysisTK.jar"],
        "Genome Analysis Toolkit",
    ),
    e(
        "glpk",
        "4.40",
        SA,
        &[],
        &["/usr/lib64/libglpk.so.0"],
        "Linear programming kit",
    ),
    e(
        "gnuplot",
        "4.6.4",
        SA,
        &["gnuplot-common", "gd"],
        &["/usr/bin/gnuplot"],
        "Plotting",
    ),
    e(
        "gnuplot-common",
        "4.6.4",
        SA,
        &[],
        &["/usr/share/gnuplot"],
        "Gnuplot data files",
    ),
    e(
        "libXpm",
        "3.5.10",
        SA,
        &[],
        &["/usr/lib64/libXpm.so.4"],
        "X pixmap library",
    ),
    e(
        "gd",
        "2.0.35",
        SA,
        &["libXpm"],
        &["/usr/lib64/libgd.so.2"],
        "Graphics drawing",
    ),
    e(
        "gromacs",
        "4.6.5",
        SA,
        &["openmpi", "fftw", "gromacs-libs", "gromacs-common"],
        &["/usr/bin/mdrun", "/usr/bin/grompp"],
        "GROMACS molecular dynamics",
    ),
    e(
        "gromacs-common",
        "4.6.5",
        SA,
        &[],
        &["/usr/share/gromacs"],
        "GROMACS shared data",
    ),
    e(
        "gromacs-libs",
        "4.6.5",
        SA,
        &[],
        &["/usr/lib64/libgmx.so.8"],
        "GROMACS libraries",
    ),
    e(
        "hmmer",
        "3.1b1",
        SA,
        &[],
        &["/usr/bin/hmmsearch"],
        "Profile HMM search",
    ),
    e(
        "lammps",
        "2014.06.28",
        SA,
        &["openmpi", "fftw", "lammps-common"],
        &["/usr/bin/lmp_openmpi"],
        "LAMMPS molecular dynamics",
    ),
    e(
        "lammps-common",
        "2014.06.28",
        SA,
        &[],
        &["/usr/share/lammps"],
        "LAMMPS potentials",
    ),
    e(
        "libgtextutils",
        "0.6.1",
        SA,
        &[],
        &["/usr/lib64/libgtextutils.so.0"],
        "Text utilities library",
    ),
    e(
        "lua",
        "5.1.4",
        SA,
        &[],
        &["/usr/bin/lua"],
        "Lua interpreter",
    ),
    e(
        "meep",
        "1.2.1",
        SA,
        &["hdf5"],
        &["/usr/bin/meep"],
        "FDTD electromagnetics",
    ),
    e(
        "mpiblast",
        "1.6.0",
        SA,
        &["openmpi", "ncbi-blast"],
        &["/usr/bin/mpiblast"],
        "Parallel BLAST",
    ),
    e(
        "mrbayes",
        "3.2.2",
        SA,
        &["openmpi"],
        &["/usr/bin/mb"],
        "Bayesian phylogenetics",
    ),
    e(
        "ncbi-blast",
        "2.2.29",
        SA,
        &[],
        &["/usr/bin/blastn"],
        "NCBI BLAST+",
    ),
    e(
        "ncl",
        "6.1.2",
        SA,
        &["ncl-common", "netcdf"],
        &["/usr/bin/ncl"],
        "NCAR Command Language",
    ),
    e(
        "ncl-common",
        "6.1.2",
        SA,
        &[],
        &["/usr/share/ncl"],
        "NCL data",
    ),
    e(
        "nco",
        "4.4.2",
        SA,
        &["netcdf"],
        &["/usr/bin/ncks"],
        "NetCDF operators",
    ),
    e(
        "netcdf",
        "4.3.0",
        SA,
        &["hdf5"],
        &["/usr/lib64/libnetcdf.so.7"],
        "NetCDF data format",
    ),
    e(
        "numpy",
        "1.7.1",
        SA,
        &["python", "atlas"],
        &["/usr/lib64/python2.7/site-packages/numpy"],
        "NumPy",
    ),
    e(
        "octave",
        "3.4.3",
        SA,
        &["fftw", "atlas"],
        &["/usr/bin/octave"],
        "GNU Octave",
    ),
    e(
        "petsc",
        "3.4.3",
        SA,
        &["openmpi", "atlas"],
        &["/usr/lib64/openmpi/lib/libpetsc.so"],
        "PETSc solvers",
    ),
    e(
        "picard-tools",
        "1.107",
        SA,
        &["java-1.7.0-openjdk"],
        &["/usr/share/java/picard.jar"],
        "SAM/BAM tools",
    ),
    e(
        "plplot",
        "5.9.7",
        SA,
        &[],
        &["/usr/lib64/libplplotd.so.11"],
        "Scientific plotting",
    ),
    e(
        "libtool-ltdl",
        "2.2.6",
        SA,
        &[],
        &["/usr/lib64/libltdl.so.7"],
        "Libtool dlopen wrapper",
    ),
    e(
        "saga",
        "2.1.0",
        SA,
        &["boost"],
        &["/usr/bin/saga_cmd"],
        "SAGA GIS",
    ),
    e(
        "libmspack",
        "0.4",
        SA,
        &[],
        &["/usr/lib64/libmspack.so.0"],
        "Microsoft compression formats",
    ),
    e(
        "wxBase3",
        "3.0.0",
        SA,
        &[],
        &["/usr/lib64/libwx_baseu-3.0.so.0"],
        "wxWidgets base 3",
    ),
    e(
        "wxGTK3",
        "3.0.0",
        SA,
        &["wxBase3"],
        &["/usr/lib64/libwx_gtk2u_core-3.0.so.0"],
        "wxWidgets GTK 3",
    ),
    e(
        "samtools",
        "0.1.19",
        SA,
        &[],
        &["/usr/bin/samtools"],
        "SAM/BAM manipulation",
    ),
    e(
        "scalapack-common",
        "2.0.2",
        SA,
        &["openmpi"],
        &["/usr/lib64/openmpi/lib/libscalapack.so"],
        "ScaLAPACK",
    ),
    e(
        "shrimp",
        "2.2.3",
        SA,
        &[],
        &["/usr/bin/gmapper"],
        "SHRiMP short-read mapper",
    ),
    e(
        "slepc",
        "3.4.3",
        SA,
        &["petsc"],
        &["/usr/lib64/openmpi/lib/libslepc.so"],
        "SLEPc eigensolvers",
    ),
    e(
        "sparsehash-devel",
        "1.12",
        SA,
        &[],
        &["/usr/include/google/sparse_hash_map"],
        "Sparse hash containers",
    ),
    e(
        "sprng",
        "2.0",
        SA,
        &[],
        &["/usr/lib64/libsprng.so"],
        "Scalable parallel RNG",
    ),
    e(
        "sratoolkit",
        "2.3.4",
        SA,
        &[],
        &["/usr/bin/fastq-dump"],
        "SRA toolkit",
    ),
    e(
        "sundials",
        "2.5.0",
        SA,
        &[],
        &["/usr/lib64/libsundials_cvode.so.1"],
        "ODE/DAE solvers",
    ),
    e(
        "trinity",
        "r20131110",
        SA,
        &["bowtie", "samtools", "java-1.7.0-openjdk"],
        &["/usr/bin/Trinity"],
        "TrinityRNASeq assembler",
    ),
    e(
        "valgrind",
        "3.8.1",
        SA,
        &[],
        &["/usr/bin/valgrind"],
        "Dynamic analysis",
    ),
    // --- Miscellaneous tools (Table 2, row 3) ---
    e(
        "ant",
        "1.7.1",
        MT,
        &["java-1.7.0-openjdk"],
        &["/usr/bin/ant"],
        "Apache Ant",
    ),
    e(
        "scons",
        "2.0.1",
        MT,
        &["python"],
        &["/usr/bin/scons"],
        "SCons build system",
    ),
    e(
        "giflib",
        "4.1.6",
        MT,
        &[],
        &["/usr/lib64/libgif.so.4"],
        "GIF library",
    ),
    e(
        "libesmtp",
        "1.0.4",
        MT,
        &[],
        &["/usr/lib64/libesmtp.so.5"],
        "SMTP client library",
    ),
    e(
        "libicu",
        "4.2.1",
        MT,
        &[],
        &["/usr/lib64/libicuuc.so.42"],
        "Unicode support",
    ),
    e(
        "pulseaudio-libs",
        "0.9.21",
        MT,
        &["libsndfile", "libasyncns"],
        &["/usr/lib64/libpulse.so.0"],
        "PulseAudio client",
    ),
    e(
        "libasyncns",
        "0.8",
        MT,
        &[],
        &["/usr/lib64/libasyncns.so.0"],
        "Async name service",
    ),
    e(
        "libsndfile",
        "1.0.20",
        MT,
        &["libvorbis", "flac"],
        &["/usr/lib64/libsndfile.so.1"],
        "Sound file I/O",
    ),
    e(
        "libvorbis",
        "1.2.3",
        MT,
        &["libogg"],
        &["/usr/lib64/libvorbis.so.0"],
        "Vorbis codec",
    ),
    e(
        "flac",
        "1.2.1",
        MT,
        &["libogg"],
        &["/usr/lib64/libFLAC.so.8"],
        "FLAC codec",
    ),
    e(
        "libogg",
        "1.1.4",
        MT,
        &[],
        &["/usr/lib64/libogg.so.0"],
        "Ogg container",
    ),
    e(
        "libXtst",
        "1.2.1",
        MT,
        &[],
        &["/usr/lib64/libXtst.so.6"],
        "X test extension",
    ),
    e(
        "rhino",
        "1.7",
        MT,
        &["java-1.7.0-openjdk"],
        &["/usr/bin/rhino"],
        "JavaScript for Java",
    ),
    e(
        "jpackage-utils",
        "1.7.5",
        MT,
        &[],
        &["/usr/bin/build-classpath"],
        "Java packaging utilities",
    ),
    e(
        "jline",
        "0.9.94",
        MT,
        &["java-1.7.0-openjdk"],
        &["/usr/share/java/jline.jar"],
        "Java line editing",
    ),
    e(
        "tzdata-java",
        "2014b",
        MT,
        &[],
        &["/usr/share/javazi"],
        "Java timezone data",
    ),
    e(
        "wxBase",
        "2.8.12",
        MT,
        &[],
        &["/usr/lib64/libwx_baseu-2.8.so.0"],
        "wxWidgets base 2.8",
    ),
    e(
        "wxGTK",
        "2.8.12",
        MT,
        &["wxBase"],
        &["/usr/lib64/libwx_gtk2u_core-2.8.so.0"],
        "wxWidgets GTK 2.8",
    ),
    e(
        "wxGTK-devel",
        "2.8.12",
        MT,
        &["wxGTK"],
        &["/usr/include/wx-2.8/wx/wx.h"],
        "wxWidgets headers",
    ),
    e(
        "xorg-x11-fonts-Type1",
        "7.2",
        MT,
        &["xorg-x11-fonts-utils"],
        &["/usr/share/X11/fonts/Type1"],
        "Type1 fonts",
    ),
    e(
        "xorg-x11-fonts-utils",
        "7.2",
        MT,
        &[],
        &["/usr/bin/mkfontdir"],
        "Font utilities",
    ),
    // --- Scheduler and resource manager (Table 2, row 4) ---
    e(
        "torque",
        "4.2.6",
        SR,
        &[],
        &["/usr/bin/qsub", "/usr/sbin/pbs_server"],
        "Torque resource manager",
    ),
    e(
        "maui",
        "3.3.1",
        SR,
        &["torque"],
        &["/usr/sbin/maui"],
        "Maui scheduler",
    ),
    e(
        "slurm",
        "2.6.5",
        SR,
        &[],
        &["/usr/bin/sbatch", "/usr/sbin/slurmctld"],
        "SLURM workload manager",
    ),
    e(
        "gridengine",
        "2011.11",
        SR,
        &[],
        &["/usr/bin/qsub-sge"],
        "Open Grid Scheduler",
    ),
    // --- XSEDE tools (Table 2, row 5) ---
    e(
        "globus-connect-server",
        "2.0.63",
        XT,
        &[],
        &["/usr/bin/globus-connect-server-setup"],
        "Globus Connect Server",
    ),
    e(
        "genesis2",
        "2.7.1",
        XT,
        &["java-1.7.0-openjdk"],
        &["/opt/genesis2/bin/grid"],
        "Genesis II GFFS client",
    ),
    e(
        "gffs",
        "2.7.1",
        XT,
        &["genesis2"],
        &["/opt/genesis2/gffs"],
        "Global Federated File System",
    ),
];

/// Deterministic size for a package (1–160 MB, stable per name).
fn size_mb_for(name: &str) -> u64 {
    1 + Fnv64::new().write(name.as_bytes()).finish() % 160
}

/// Build the full catalog as installable [`Package`]s (release `1.el6`,
/// the XCBC 0.9 build).
pub fn xcbc_catalog() -> Vec<Package> {
    CATALOG
        .iter()
        .map(|entry| {
            let mut b = PackageBuilder::new(entry.name, entry.version, "1.el6")
                .group(entry.group)
                .summary(entry.summary)
                .size_mb(size_mb_for(entry.name));
            for req in entry.requires {
                b = b.requires_simple(req);
            }
            b = b.files(entry.paths.iter().copied());
            b.build()
        })
        .collect()
}

/// Entries by category — the row structure of Table 2.
pub fn entries_in(group: PackageGroup) -> Vec<&'static CatalogEntry> {
    CATALOG.iter().filter(|e| e.group == group).collect()
}

/// The XSEDE (Stampede) reference profile: what versions and paths an
/// XSEDE-compatible cluster must expose. This is the catalog minus the
/// non-default scheduler alternatives — Table 2's scheduler row is
/// "maui, torque"; SLURM and SGE are Table 1's "choose one" options and
/// their absence does not break run-alike compatibility. Built once per
/// process.
pub fn xsede_reference() -> &'static [CatalogEntry] {
    static REFERENCE: OnceLock<Vec<CatalogEntry>> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        CATALOG
            .iter()
            .filter(|e| e.name != "slurm" && e.name != "gridengine")
            .copied()
            .collect()
    })
}

/// Look an entry up by name.
pub fn entry(name: &str) -> Option<&'static CatalogEntry> {
    CATALOG.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalog_is_substantial() {
        assert!(
            CATALOG.len() >= 110,
            "Tables 1+2 list well over 100 packages: {}",
            CATALOG.len()
        );
    }

    #[test]
    fn no_duplicate_names() {
        let mut seen = HashSet::new();
        for e in CATALOG {
            assert!(seen.insert(e.name), "duplicate catalog entry {}", e.name);
        }
    }

    #[test]
    fn all_requires_resolve_within_catalog() {
        let names: HashSet<&str> = CATALOG.iter().map(|e| e.name).collect();
        for e in CATALOG {
            for r in e.requires {
                assert!(
                    names.contains(r),
                    "{} requires {} which is not in the catalog",
                    e.name,
                    r
                );
            }
        }
    }

    #[test]
    fn every_entry_has_paths_and_summary() {
        for e in CATALOG {
            assert!(!e.paths.is_empty(), "{} has no install paths", e.name);
            assert!(!e.summary.is_empty(), "{} has no summary", e.name);
            assert!(!e.version.is_empty());
        }
    }

    #[test]
    fn table2_categories_all_populated() {
        use PackageGroup::*;
        assert!(entries_in(CompilersLibraries).len() >= 25, "Table 2 row 1");
        assert!(
            entries_in(ScientificApplications).len() >= 55,
            "Table 2 row 2"
        );
        assert!(entries_in(MiscellaneousTools).len() >= 20, "Table 2 row 3");
        assert!(
            entries_in(SchedulerResourceManager).len() >= 2,
            "Table 2 row 4: maui, torque"
        );
        assert_eq!(entries_in(XsedeTools).len(), 3, "Globus, Genesis II, GFFS");
    }

    #[test]
    fn headline_packages_present_with_paper_versions() {
        // packages the paper names explicitly
        for name in [
            "gromacs",
            "mpiblast",
            "gatk",
            "trinity",
            "R",
            "torque",
            "maui",
            "globus-connect-server",
            "genesis2",
            "gffs",
            "lammps",
            "openmpi",
        ] {
            assert!(entry(name).is_some(), "paper names {name} explicitly");
        }
        assert_eq!(entry("R").unwrap().version, "3.0.2");
    }

    #[test]
    fn built_packages_satisfy_own_dep_closure() {
        let pkgs = xcbc_catalog();
        let mut db = xcbc_rpm::RpmDb::new();
        let mut tx = xcbc_rpm::TransactionSet::new();
        for p in pkgs {
            tx.add_install(p);
        }
        assert!(tx.check(&db).is_empty(), "{:?}", tx.check(&db));
        tx.run(&mut db).unwrap();
        assert!(db.verify().is_empty());
        assert_eq!(db.len(), CATALOG.len());
    }

    #[test]
    fn xsede_paths_follow_convention() {
        // libraries under /usr/lib64, binaries under /usr/bin or /opt —
        // "libraries are in the same place as on XSEDE clusters"
        for e in CATALOG {
            for p in e.paths {
                assert!(
                    p.starts_with("/usr/") || p.starts_with("/opt/"),
                    "{}: unconventional path {}",
                    e.name,
                    p
                );
            }
        }
    }

    #[test]
    fn sizes_deterministic() {
        assert_eq!(size_mb_for("gromacs"), size_mb_for("gromacs"));
        let a = xcbc_catalog();
        let b = xcbc_catalog();
        assert_eq!(a, b);
    }
}

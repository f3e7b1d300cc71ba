//! XALT integration (§IV-B).
//!
//! "More detailed information … can be accessed from this detailed view
//! page, along with … which modules were loaded and libraries were
//! linked to at runtime. Note the modules and libraries are only
//! available if the XALT plugin is enabled."
//!
//! XALT (Agrawal et al., HUST '14) tracks the user environment per
//! executable launch. This module emulates the plugin: a deterministic
//! mapping from executable names to the modules/libraries their builds
//! typically carry, recorded per job in an [`XaltDb`] that the portal's
//! detail view renders when the plugin is enabled.

use crate::job::JobId;
use std::collections::BTreeMap;

/// One job's environment record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XaltRecord {
    /// Executable name.
    pub exec: String,
    /// Modules loaded at launch (`module list`).
    pub modules: Vec<String>,
    /// Shared libraries the executable linked against.
    pub libraries: Vec<String>,
}

/// Deterministic environment for a known executable; unknown executables
/// get the bare toolchain.
fn environment_for(exec: &str) -> XaltRecord {
    let (modules, libraries): (Vec<&str>, Vec<&str>) = match exec {
        "wrf.exe" => (
            vec![
                "intel/15.0.2",
                "mvapich2/2.1",
                "netcdf/4.3.3",
                "pnetcdf/1.6.0",
            ],
            vec![
                "libnetcdff.so.6",
                "libpnetcdf.so.1",
                "libmpich.so.12",
                "libifcore.so.5",
            ],
        ),
        "namd2" => (
            vec!["intel/15.0.2", "impi/5.0.3", "fftw3/3.3.4"],
            vec!["libfftw3f.so.3", "libmpi.so.12", "libtcl8.5.so"],
        ),
        "mdrun" => (
            vec!["intel/15.0.2", "mvapich2/2.1", "gromacs/5.1", "fftw3/3.3.4"],
            vec!["libfftw3f.so.3", "libgromacs.so.1", "libmpich.so.12"],
        ),
        "lmp_stampede" => (
            vec!["intel/15.0.2", "mvapich2/2.1", "fftw3/3.3.4"],
            vec!["libfftw3.so.3", "libmpich.so.12"],
        ),
        "pw.x" => (
            vec!["intel/15.0.2", "mvapich2/2.1", "mkl/11.2"],
            vec![
                "libmkl_intel_lp64.so",
                "libmkl_scalapack_lp64.so",
                "libmpich.so.12",
            ],
        ),
        "python" | "postproc.py" => (
            vec!["gcc/4.9.1", "python/2.7.9"],
            vec!["libpython2.7.so.1.0", "libnumpy.so"],
        ),
        "mic_offload.x" => (
            vec!["intel/15.0.2", "impi/5.0.3", "mic/1.0"],
            vec!["liboffload.so.5", "libcoi_host.so.0", "libmpi.so.12"],
        ),
        "h5_writer" => (
            vec!["intel/15.0.2", "mvapich2/2.1", "phdf5/1.8.14"],
            vec!["libhdf5.so.9", "libmpich.so.12"],
        ),
        _ => (
            vec!["intel/15.0.2", "mvapich2/2.1"],
            vec!["libmpich.so.12", "libc.so.6"],
        ),
    };
    XaltRecord {
        exec: exec.to_string(),
        modules: modules.into_iter().map(String::from).collect(),
        libraries: libraries.into_iter().map(String::from).collect(),
    }
}

/// Per-job environment store (the XALT database).
#[derive(Default)]
pub struct XaltDb {
    enabled: bool,
    records: BTreeMap<JobId, XaltRecord>,
}

impl XaltDb {
    /// A database with the plugin enabled or disabled (§IV-B: data is
    /// "only available if the XALT plugin is enabled").
    pub fn new(enabled: bool) -> XaltDb {
        XaltDb {
            enabled,
            records: BTreeMap::new(),
        }
    }

    /// Whether the plugin is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a job launch (no-op when disabled).
    pub fn record_launch(&mut self, job: JobId, exec: &str) {
        if !self.enabled {
            return;
        }
        self.records.insert(job, environment_for(exec));
    }

    /// Look up a job's environment (None when disabled or unknown).
    pub fn lookup(&self, job: JobId) -> Option<XaltRecord> {
        self.records.get(&job).cloned()
    }

    /// Jobs whose environment includes a given module (the audit query
    /// XALT enables: "who still links against X?").
    pub fn jobs_with_module(&self, module_prefix: &str) -> Vec<JobId> {
        self.records
            .iter()
            .filter(|(_, r)| r.modules.iter().any(|m| m.starts_with(module_prefix)))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Render the detail-view block for a job.
    pub fn render(&self, job: JobId) -> String {
        match self.lookup(job) {
            Some(r) => format!(
                "Modules loaded: {}\nLibraries linked: {}\n",
                r.modules.join(", "),
                r.libraries.join(", ")
            ),
            None => "(XALT plugin not enabled)\n".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_executables_have_rich_environments() {
        let wrf = environment_for("wrf.exe");
        assert!(wrf.modules.iter().any(|m| m.starts_with("netcdf")));
        assert!(wrf.libraries.iter().any(|l| l.contains("netcdf")));
        let unknown = environment_for("a.out");
        assert_eq!(unknown.modules.len(), 2);
    }

    #[test]
    fn disabled_plugin_records_nothing() {
        let mut db = XaltDb::new(false);
        db.record_launch(1, "wrf.exe");
        assert_eq!(db.lookup(1), None);
        assert!(db.render(1).contains("not enabled"));
    }

    #[test]
    fn enabled_plugin_records_and_audits() {
        let mut db = XaltDb::new(true);
        db.record_launch(1, "wrf.exe");
        db.record_launch(2, "namd2");
        db.record_launch(3, "python");
        assert_eq!(db.lookup(1).unwrap().exec, "wrf.exe");
        // Audit: which jobs loaded any intel module?
        let intel = db.jobs_with_module("intel/");
        assert_eq!(intel, vec![1, 2]);
        assert!(db.render(2).contains("fftw3"));
    }
}

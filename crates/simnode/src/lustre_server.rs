//! Shared Lustre server model.
//!
//! §VI-A of the paper: "the interactions between jobs can severely
//! impact performance, particularly when interference occurs over
//! shared resources like the Lustre filesystem. Simultaneously running
//! jobs may individually use modest filesystem's resources but in
//! aggregate overwhelm the managing servers."
//!
//! [`MdsModel`] is an M/M/1-flavoured latency model for the metadata
//! server: per-request wait grows as cluster-wide load approaches the
//! server's capacity. The cluster driver feeds it the aggregate request
//! rate each step and scales every node's effective `mdc_wait_us` with
//! the resulting factor — so one user's metadata storm visibly raises
//! *other* users' operation wait times, which is exactly the §VI-A
//! analysis target.

/// Metadata-server latency model.
#[derive(Clone, Copy, Debug)]
pub struct MdsModel {
    /// Request rate (req/s) the MDS can sustain before latency diverges.
    pub capacity_reqs_per_sec: f64,
    /// Utilization is clamped below this to keep waits finite (a real
    /// server sheds/queues rather than diverging).
    pub max_utilization: f64,
}

impl Default for MdsModel {
    fn default() -> Self {
        // Stampede-era MDS: mid-10^5 req/s is storm territory (the §V-B
        // user alone produced 563,905 req/s and "adds significant load
        // to the filesystem").
        MdsModel {
            capacity_reqs_per_sec: 800_000.0,
            max_utilization: 0.95,
        }
    }
}

impl MdsModel {
    /// Latency multiplier at an aggregate request rate: 1 at idle,
    /// 1/(1-ρ) as the server saturates (M/M/1 residence-time scaling),
    /// clamped at `max_utilization`.
    pub fn wait_factor(&self, aggregate_reqs_per_sec: f64) -> f64 {
        if self.capacity_reqs_per_sec <= 0.0 {
            return 1.0;
        }
        let rho =
            (aggregate_reqs_per_sec / self.capacity_reqs_per_sec).clamp(0.0, self.max_utilization);
        1.0 / (1.0 - rho)
    }

    /// Effective per-request wait (µs) for a client whose base service
    /// time is `base_wait_us`, under aggregate load.
    #[cfg(test)]
    fn effective_wait_us(&self, base_wait_us: f64, aggregate_reqs_per_sec: f64) -> f64 {
        base_wait_us * self.wait_factor(aggregate_reqs_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_adds_nothing() {
        let m = MdsModel::default();
        assert!((m.wait_factor(0.0) - 1.0).abs() < 1e-12);
        assert_eq!(m.effective_wait_us(400.0, 0.0), 400.0);
    }

    #[test]
    fn latency_grows_with_load_and_saturates() {
        let m = MdsModel {
            capacity_reqs_per_sec: 100_000.0,
            max_utilization: 0.95,
        };
        let low = m.wait_factor(10_000.0);
        let mid = m.wait_factor(50_000.0);
        let high = m.wait_factor(90_000.0);
        let over = m.wait_factor(10_000_000.0);
        assert!(low < mid && mid < high && high < over + 1e-12);
        assert!((mid - 2.0).abs() < 1e-9, "rho=0.5 doubles wait: {mid}");
        assert!((over - 20.0).abs() < 1e-9, "clamped at rho=0.95: {over}");
    }

    #[test]
    fn interference_shape_matches_sec6a() {
        // A victim doing 100 req/s sees its per-request wait rise when a
        // storm pushes the server toward saturation — the §VI-A story.
        let m = MdsModel::default();
        let quiet = m.effective_wait_us(400.0, 5_000.0);
        let stormy = m.effective_wait_us(400.0, 600_000.0);
        assert!(stormy / quiet > 3.0, "{quiet} → {stormy}");
    }

    #[test]
    fn degenerate_capacity_is_safe() {
        let m = MdsModel {
            capacity_reqs_per_sec: 0.0,
            max_utilization: 0.95,
        };
        assert_eq!(m.wait_factor(1e9), 1.0);
    }
}

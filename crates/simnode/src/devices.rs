//! Simulated counter devices.
//!
//! Each device instance (one CPU's core counters, one socket's IMC, one
//! Lustre filesystem's llite stats, …) is a [`SimDevice`]: an ordered
//! vector of fixed-width [`Counter`]s matching the device type's
//! [`Schema`]. Workload models add *fractional* event amounts each
//! simulation step; [`FracAccum`]s keep long-run totals exact.
//!
//! The workload model writes registers by schema position
//! ([`SimDevice::add_at`], [`SimDevice::set_gauge_at`] with the
//! [`crate::schema::pos`] constants): no name lookup, no allocation. The
//! by-name [`SimDevice::add`] / [`SimDevice::set_gauge`] wrap them for
//! tests and fault injection, and keep their programming-error panics.

use crate::counter::{Counter, FracAccum};
use crate::schema::{DeviceType, EventKind, Schema};
use crate::topology::CpuArch;

/// One simulated device instance.
#[derive(Clone, Debug)]
pub struct SimDevice {
    /// Device type (determines the schema).
    pub dev_type: DeviceType,
    /// Instance name, e.g. `"3"` for CPU 3, `"scratch"` for an llite
    /// filesystem, `"mlx4_0/1"` for an IB port.
    pub instance: String,
    schema: Schema,
    counters: Vec<Counter>,
    fracs: Vec<FracAccum>,
    frozen: bool,
}

impl SimDevice {
    /// New device instance with all counters zeroed.
    // alloc: cold-fn (construction: the schema, registers and name are built once per instance)
    pub fn new(dev_type: DeviceType, instance: impl Into<String>, arch: CpuArch) -> Self {
        let schema = dev_type.schema(arch);
        let counters = schema
            .events
            .iter()
            .map(|e| Counter::new(e.width))
            .collect();
        let fracs = vec![FracAccum::new(); schema.len()];
        SimDevice {
            dev_type,
            instance: instance.into(),
            schema,
            counters,
            fracs,
            frozen: false,
        }
    }

    /// The device's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Freeze or thaw the device. While frozen the counters stop
    /// advancing (a "stuck counter" hardware fault); reads still work
    /// and keep returning the last values.
    pub fn set_frozen(&mut self, frozen: bool) {
        self.frozen = frozen;
    }

    /// Is the device currently frozen?
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Add a fractional amount of events to the event at schema position
    /// `idx` (a [`crate::schema::pos`] constant). A frozen device ignores
    /// it; so does a position past the schema, which debug builds reject.
    pub fn add_at(&mut self, idx: usize, amount: f64) {
        debug_assert!(
            idx < self.counters.len(),
            "{}: no event {idx}",
            self.dev_type
        );
        if self.frozen {
            return;
        }
        if let (Some(frac), Some(counter)) = (self.fracs.get_mut(idx), self.counters.get_mut(idx)) {
            counter.add(frac.step(amount));
        }
    }

    /// Set the gauge at schema position `idx` to an absolute value. A
    /// frozen device keeps its last value; debug builds reject a position
    /// that is not a gauge.
    pub fn set_gauge_at(&mut self, idx: usize, value: u64) {
        debug_assert!(
            self.schema.events.get(idx).map(|e| e.kind) == Some(EventKind::Gauge),
            "{}: event {idx} is not a gauge",
            self.dev_type
        );
        if self.frozen {
            return;
        }
        if let Some(counter) = self.counters.get_mut(idx) {
            counter.reset();
            counter.add(value);
        }
    }

    /// Add a fractional amount of events to the named event. Panics if the
    /// event does not exist (a programming error in the workload model).
    pub fn add(&mut self, event: &str, amount: f64) {
        if self.frozen {
            return;
        }
        let idx = self
            .schema
            .index_of(event)
            .unwrap_or_else(|| panic!("{}: no event {event}", self.dev_type));
        self.add_at(idx, amount);
    }

    /// Set a gauge event to an absolute value. Panics if the event is a
    /// cumulative counter.
    pub fn set_gauge(&mut self, event: &str, value: u64) {
        let idx = self
            .schema
            .index_of(event)
            .unwrap_or_else(|| panic!("{}: no event {event}", self.dev_type));
        assert_eq!(
            self.schema.events.get(idx).map(|e| e.kind),
            Some(EventKind::Gauge),
            "{}.{event} is not a gauge",
            self.dev_type
        );
        self.set_gauge_at(idx, value);
    }

    /// Read all registers, truncated to their widths — what the collector
    /// sees.
    // alloc: cold-fn (owned copy for tests and one-off reads; collectors use read_at)
    pub fn read_all(&self) -> Vec<u64> {
        self.counters.iter().map(Counter::read).collect()
    }

    /// Read one register by schema position, truncated to its width.
    pub fn read_at(&self, idx: usize) -> Option<u64> {
        self.counters.get(idx).map(Counter::read)
    }

    /// Read one register by event name.
    pub fn read(&self, event: &str) -> Option<u64> {
        self.read_at(self.schema.index_of(event)?)
    }

    /// Full-precision ground-truth totals (test oracle).
    // alloc: cold-fn (test oracle: an owned copy of the totals)
    pub fn totals(&self) -> Vec<u64> {
        self.counters.iter().map(Counter::total).collect()
    }

    /// Reset all counters (node reboot). Also thaws a frozen device —
    /// the fault driver re-freezes it if the fault window is still open.
    pub fn reset(&mut self) {
        for c in &mut self.counters {
            c.reset();
        }
        for f in &mut self.fracs {
            *f = FracAccum::new();
        }
        self.frozen = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_fractions() {
        let mut d = SimDevice::new(DeviceType::Mdc, "scratch", CpuArch::SandyBridge);
        for _ in 0..10 {
            d.add("reqs", 0.25);
        }
        assert_eq!(d.read("reqs"), Some(2));
        assert_eq!(d.read("wait"), Some(0));
    }

    #[test]
    fn gauge_set_overwrites() {
        let mut d = SimDevice::new(DeviceType::Mem, "0", CpuArch::SandyBridge);
        d.set_gauge("MemUsed", 1000);
        d.set_gauge("MemUsed", 500);
        assert_eq!(d.read("MemUsed"), Some(500));
    }

    #[test]
    #[should_panic(expected = "is not a gauge")]
    fn gauge_set_on_counter_panics() {
        let mut d = SimDevice::new(DeviceType::Mdc, "scratch", CpuArch::SandyBridge);
        d.set_gauge("reqs", 1);
    }

    #[test]
    fn read_all_matches_schema_order() {
        let mut d = SimDevice::new(DeviceType::Ib, "mlx4_0/1", CpuArch::SandyBridge);
        d.add("port_xmit_data", 100.0);
        d.add("port_rcv_pkts", 7.0);
        let v = d.read_all();
        assert_eq!(v.len(), 4);
        assert_eq!(v[0], 100); // port_xmit_data
        assert_eq!(v[3], 7); // port_rcv_pkts
        for (i, want) in v.iter().enumerate() {
            assert_eq!(d.read_at(i), Some(*want));
        }
        assert_eq!(d.read_at(v.len()), None);
    }

    #[test]
    fn rapl_register_wraps_but_total_grows() {
        let mut d = SimDevice::new(DeviceType::Rapl, "0", CpuArch::SandyBridge);
        // 2^32 energy units is ~262 kJ; a 115 W socket wraps in ~38 min.
        for _ in 0..100 {
            d.add("MSR_PKG_ENERGY_STATUS", 1e8);
        }
        let read = d.read("MSR_PKG_ENERGY_STATUS").unwrap();
        assert!(read < 1u64 << 32);
        assert_eq!(d.totals()[0], 100 * 100_000_000);
        assert_ne!(read as u128, d.totals()[0] as u128);
    }

    #[test]
    fn frozen_device_sticks_until_thawed() {
        let mut d = SimDevice::new(DeviceType::Net, "eth0", CpuArch::SandyBridge);
        d.add("rx_bytes", 100.0);
        d.set_frozen(true);
        d.add("rx_bytes", 50.0);
        assert_eq!(
            d.read("rx_bytes"),
            Some(100),
            "stuck counter must not advance"
        );
        d.set_frozen(false);
        d.add("rx_bytes", 50.0);
        assert_eq!(d.read("rx_bytes"), Some(150));
    }

    #[test]
    fn frozen_gauge_keeps_last_value() {
        let mut d = SimDevice::new(DeviceType::Mem, "0", CpuArch::SandyBridge);
        d.set_gauge("MemUsed", 1000);
        d.set_frozen(true);
        d.set_gauge("MemUsed", 77);
        assert_eq!(d.read("MemUsed"), Some(1000));
    }

    #[test]
    fn reset_thaws() {
        let mut d = SimDevice::new(DeviceType::Net, "eth0", CpuArch::SandyBridge);
        d.set_frozen(true);
        d.reset();
        assert!(!d.is_frozen());
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut d = SimDevice::new(DeviceType::Net, "eth0", CpuArch::Haswell);
        d.add("rx_bytes", 12345.0);
        d.reset();
        assert_eq!(d.read_all(), vec![0, 0, 0, 0]);
    }
}

//! Hardware-counter primitives.
//!
//! Real performance counters are fixed-width cumulative registers: core
//! MSR counters are 48 bits wide, RAPL energy-status registers only 32,
//! and procfs counters effectively 64. The paper's metric definitions
//! (§IV-A) rely on counters being *cumulative* so that infrequent (10 min)
//! sampling still yields exact average rates — but the collector must
//! handle register wrap-around between samples. The simulation therefore
//! accumulates full-precision values internally and exposes *wrapped*
//! readings, so the collector's rollover logic is genuinely exercised.

use crate::schema::Schema;

/// Registers a device instance holds inline: the widest schema a
/// [`crate::devices::SimDevice`] carries, `cpu` with its two optional
/// cache-hit events. (`ps` is wider, but its values are per-process
/// records, never a device instance.)
pub(crate) const REGS: usize = 9;

/// 2^52: from it on, every `f64` is an integer; below it, adding it
/// rounds away the fraction.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// One simulated register: a full-precision event total, plus the
/// fractional event count carried to the next add.
///
/// Workload models produce *rates* (e.g. 3.7e9 FLOPs per second); stepping
/// the simulation by, say, 100 ms yields fractional event counts. The
/// carry keeps the remainder so long-run totals are exact. The total never
/// reaches 2^64 in practice (u64 nanojoule-scale quantities over simulated
/// months stay far below it), and saturates there rather than wrap; a read
/// masks it to the register width.
#[derive(Clone, Copy, Debug, Default)]
pub struct Register {
    total: u64,
    carry: f64,
}

impl Register {
    /// Add a fractional amount of events: the whole part of carry plus
    /// amount goes to the total, the fraction stays as the carry. A
    /// negative or NaN amount adds nothing; an infinite one saturates the
    /// total at `u64::MAX`, where it stays (the carry is NaN from then
    /// on, and every later add is `u64::MAX` whole events).
    pub fn add(&mut self, amount: f64) {
        let (whole, carry) = split(self.carry + amount.max(0.0));
        self.carry = carry;
        self.total = self.total.saturating_add(whole);
    }

    /// Set the total to an absolute value (a gauge). The carry is left
    /// alone: gauges never take fractional adds.
    pub fn set(&mut self, value: u64) {
        self.total = value;
    }

    /// Full-precision total (ground truth, used by tests to validate the
    /// collector's rollover correction).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The fractional event count carried to the next add: in `[0, 1)`,
    /// or NaN once an infinite amount was added.
    pub fn carry(&self) -> f64 {
        self.carry
    }
}

/// `total` split into whole events and the fraction carried on: with
/// `whole = total.floor()`, `(whole.min(u64::MAX as f64) as u64, total -
/// whole)` bit for bit, for every `total >= 0`, +∞ and NaN — but with no
/// call: baseline x86-64 has no rounding instruction (SSE4.1's
/// `roundsd`), so `f64::floor` is a call into a software routine, and
/// the saturating cast is a dozen instructions.
///
/// Below 2^52, adding 2^52 rounds `total` to an integer: the sum's low
/// mantissa bits are that integer, and subtracting 2^52 gives it back as
/// an `f64`, exactly. If that rounded up, step down by one — without a
/// branch, which would mispredict on half the fractions. At or above
/// 2^52 every `f64` is already an integer; +∞ and NaN fail the
/// comparison too and take that path.
fn split(total: f64) -> (u64, f64) {
    if total < TWO_POW_52 {
        let biased = total + TWO_POW_52;
        let rounded = biased - TWO_POW_52;
        let up = rounded > total;
        // The comparison's 0 or 1 times the bits of 1.0: 0.0 or 1.0.
        let whole = rounded - f64::from_bits(u64::from(up) * 1f64.to_bits());
        let events = biased.to_bits() - TWO_POW_52.to_bits() - u64::from(up);
        (events, total - whole)
    } else {
        // The remainder is 0, or NaN for +∞ and NaN, as `floor` leaves it.
        let whole = total;
        (whole.min(u64::MAX as f64) as u64, total - whole)
    }
}

/// The read masks of `schema`'s registers, in schema order (positions past
/// the schema are 0). Panics if the schema has more than [`REGS`] events or
/// a width outside 1..=64: a device built from it could not hold or mask
/// its registers.
pub(crate) fn register_masks(schema: &Schema) -> [u64; REGS] {
    assert!(
        schema.len() <= REGS && schema.events.iter().all(|e| (1..=64).contains(&e.width)),
        "a device holds at most {REGS} registers of 1..=64 bits: {schema:?}"
    );
    let mut masks = [0; REGS];
    for (mask, e) in masks.iter_mut().zip(&schema.events) {
        *mask = u64::MAX >> (64 - e.width);
    }
    masks
}

/// Correct a delta between two fixed-width register reads for (at most
/// one) wrap-around — the same arithmetic the real tacc_stats applies.
///
/// Returns `curr - prev` modulo `2^width`.
pub fn wrapping_delta(prev: u64, curr: u64, width: u32) -> u64 {
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    curr.wrapping_sub(prev) & mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DeviceType;
    use crate::topology::CpuArch;
    use proptest::prelude::*;

    #[test]
    fn register_masks_follow_schema_widths() {
        let rapl = register_masks(&DeviceType::Rapl.schema(CpuArch::SandyBridge));
        assert_eq!(rapl[..3], [u64::from(u32::MAX); 3]);
        assert_eq!(rapl[3..], [0; REGS - 3]);
        let cpu = register_masks(&DeviceType::Cpu.schema(CpuArch::SandyBridge));
        assert_eq!(cpu, [(1u64 << 48) - 1; REGS]);
        let net = register_masks(&DeviceType::Net.schema(CpuArch::SandyBridge));
        assert_eq!(net[..4], [u64::MAX; 4], "full width never masks");
    }

    #[test]
    #[should_panic(expected = "at most 9 registers")]
    fn a_schema_wider_than_the_registers_panics() {
        register_masks(&DeviceType::Ps.schema(CpuArch::SandyBridge));
    }

    #[test]
    fn wrapping_delta_handles_single_wrap() {
        // 32-bit RAPL register wrapping once between samples.
        let prev = 0xFFFF_FF00u64;
        let curr = 0x0000_0100u64;
        assert_eq!(wrapping_delta(prev, curr, 32), 0x200);
    }

    #[test]
    fn wrapping_delta_no_wrap() {
        assert_eq!(wrapping_delta(100, 350, 48), 250);
    }

    #[test]
    fn register_add_conserves_totals() {
        let mut r = Register::default();
        for _ in 0..1000 {
            r.add(0.3);
        }
        // 1000 * 0.3 = 300 events, +-1 for the trailing carry.
        assert!(
            r.total() == 299 || r.total() == 300,
            "total = {}",
            r.total()
        );
        assert!((0.0..1.0).contains(&r.carry()));
    }

    #[test]
    fn an_infinite_add_saturates_and_stays() {
        let mut r = Register::default();
        r.add(5.0);
        r.add(f64::INFINITY);
        assert_eq!(r.total(), u64::MAX);
        for amount in [1.0, 2.5, 3.0, 0.0] {
            r.add(amount);
            assert_eq!(r.total(), u64::MAX, "after add({amount})");
        }
        // Finite adds past the top saturate too.
        let mut r = Register::default();
        r.set(u64::MAX - 1);
        r.add(3.0);
        assert_eq!(r.total(), u64::MAX);
    }

    #[test]
    fn gauge_set_keeps_the_carry() {
        let mut r = Register::default();
        r.add(2.5);
        r.set(7);
        assert_eq!((r.total(), r.carry()), (7, 0.5));
    }

    /// The parent's split of a total: `f64::floor` and a saturating cast.
    fn split_by_floor(total: f64) -> (u64, f64) {
        let whole = total.floor();
        (whole.min(u64::MAX as f64) as u64, total - whole)
    }

    /// Whole events equal, and carries equal bit for bit (a NaN carry only
    /// has to stay a NaN: its payload is the hardware's).
    fn same_split(total: f64) -> bool {
        let ((a, x), (b, y)) = (split(total), split_by_floor(total));
        a == b && (x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// Exact at the values where the 2^52 trick could go wrong: either
    /// side of every integer it must not cross, the guard itself, the
    /// values past it, and the non-finite ones.
    #[test]
    fn split_matches_floor_at_the_edges() {
        let two52 = TWO_POW_52;
        let edges = [
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            1.0,
            1.5,
            2.5,
            two52 - 1.5,
            two52 - 0.5,
            two52 - 0.25,
            two52,
            two52 + 1.0,
            two52 * 2.0 + 2.0,
            2f64.powi(63),
            2f64.powi(64),
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for x in edges {
            assert!(same_split(x), "split({x:e}) = {:?}", split(x));
        }
    }

    proptest! {
        /// The collector-side rollover correction must recover the true
        /// delta whenever the true delta fits in the register width.
        #[test]
        fn rollover_correction_recovers_truth(
            start in 0u64..u64::MAX / 4,
            delta in 0u64..1u64 << 30,
            width in 32u32..=64,
        ) {
            let mask = u64::MAX >> (64 - width);
            let mut r = Register::default();
            r.set(start);
            let prev = r.total() & mask;
            r.add(delta as f64);
            let curr = r.total() & mask;
            prop_assert_eq!(wrapping_delta(prev, curr, width), delta & mask);
        }

        /// A register never loses more than one event over any sequence.
        #[test]
        fn register_error_bounded(amounts in proptest::collection::vec(0.0f64..1e6, 1..100)) {
            let mut r = Register::default();
            let mut want = 0.0f64;
            for a in &amounts {
                r.add(*a);
                want += *a;
            }
            let err = (want - r.total() as f64).abs();
            prop_assert!(err <= 1.0 + want * 1e-9, "err = {err}");
        }

        /// Bit for bit the parent's split over every non-negative bit
        /// pattern.
        #[test]
        fn split_matches_floor(bits in any::<u64>()) {
            let x = f64::from_bits(bits >> 1);
            prop_assert!(same_split(x), "split({x:e}) = {:?}", split(x));
        }
    }
}

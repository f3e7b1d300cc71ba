//! Buffer-reusing byte codec for the raw-stats format.
//!
//! [`crate::record`] defines the *types* of the raw format; this module
//! owns their wire encoding. The hot path renders every sample of every
//! node once per collection interval, so the codec is built around two
//! rules:
//!
//! 1. **No fresh allocations per sample.** All `render_*_into`
//!    functions append to a caller-owned `Vec<u8>`; callers clear and
//!    reuse one buffer per message (`buf.clear()` keeps the capacity).
//!    Integers are written through a stack buffer — no `format!`, no
//!    intermediate `String`s.
//! 2. **Bytes are the native representation.** The daemon→broker→
//!    consumer path moves byte payloads; [`parse_bytes`] validates
//!    UTF-8 once and parses in place, so no layer needs to build an
//!    owned `String` just to look at a message.
//!
//! The legacy `String`-returning render methods on
//! [`crate::record::RawFile`] are thin wrappers over the same generic
//! rendering code (via the [`Out`] sink below), so the two APIs cannot
//! drift: `parse_bytes(render_message_into(...)) == parse(render_message(...))`.

use crate::record::{HostHeader, ParseError, RawFile, Sample, FORMAT_VERSION};
use tacc_simnode::schema::EventKind;

/// Byte sink the rendering code writes through. Implemented for
/// `Vec<u8>` (the reused-buffer hot path) and `String` (the legacy
/// API), so rendering is written once and neither path pays a UTF-8
/// conversion: every write is either a `&str` or a single ASCII byte.
pub(crate) trait Out {
    /// Append a string.
    fn put_str(&mut self, s: &str);
    /// Append one ASCII byte (`b < 0x80`).
    fn put_ascii(&mut self, b: u8);
}

impl Out for Vec<u8> {
    fn put_str(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }
    fn put_ascii(&mut self, b: u8) {
        self.push(b);
    }
}

impl Out for String {
    fn put_str(&mut self, s: &str) {
        self.push_str(s);
    }
    fn put_ascii(&mut self, b: u8) {
        self.push(char::from(b));
    }
}

/// Append `v` in decimal: the digits are written into the tail of a
/// stack buffer (a `u64` has at most 20) and appended with one
/// `put_str`.
pub(crate) fn put_u64<O: Out + ?Sized>(out: &mut O, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    for slot in buf.iter_mut().rev() {
        *slot = b'0' + (v % 10) as u8;
        start -= 1;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // Only ASCII digits were written, so neither fallback is reachable.
    let digits = buf.get(start..).and_then(|d| std::str::from_utf8(d).ok());
    out.put_str(digits.unwrap_or(""));
}

/// Render the `$`/`!` header block.
pub(crate) fn render_header<O: Out + ?Sized>(h: &HostHeader, out: &mut O) {
    out.put_str("$tacc_stats ");
    out.put_str(FORMAT_VERSION);
    out.put_ascii(b'\n');
    out.put_str("$hostname ");
    out.put_str(h.hostname.as_str());
    out.put_ascii(b'\n');
    out.put_str("$arch ");
    out.put_str(h.arch.name());
    out.put_ascii(b'\n');
    for (dt, schema) in &h.schemas {
        out.put_ascii(b'!');
        out.put_str(dt.name());
        out.put_ascii(b' ');
        // Inline `Schema::render` through the sink: a schema line is
        // interned names and ASCII punctuation, no Strings needed.
        for (i, e) in schema.events.iter().enumerate() {
            if i > 0 {
                out.put_ascii(b' ');
            }
            out.put_str(e.name.as_str());
            out.put_ascii(b',');
            out.put_str(e.unit.label());
            out.put_ascii(b',');
            out.put_ascii(match e.kind {
                EventKind::Counter => b'C',
                EventKind::Gauge => b'G',
            });
            out.put_ascii(b',');
            put_u64(out, u64::from(e.width));
        }
        out.put_ascii(b'\n');
    }
}

/// Render a `$seq <n>` header line.
pub(crate) fn render_seq<O: Out + ?Sized>(seq: u64, out: &mut O) {
    out.put_str("$seq ");
    put_u64(out, seq);
    out.put_ascii(b'\n');
}

/// Render one timestamped record group.
pub(crate) fn render_sample<O: Out + ?Sized>(s: &Sample, out: &mut O) {
    put_u64(out, s.time.as_secs());
    out.put_ascii(b' ');
    if s.jobids.is_empty() {
        out.put_ascii(b'-');
    } else {
        let mut first = true;
        for j in &s.jobids {
            if !first {
                out.put_ascii(b',');
            }
            first = false;
            out.put_str(j);
        }
    }
    out.put_ascii(b'\n');
    for m in &s.marks {
        out.put_ascii(b'%');
        out.put_str(m);
        out.put_ascii(b'\n');
    }
    for d in &s.devices {
        out.put_str(d.dev_type.name());
        out.put_ascii(b' ');
        out.put_str(d.instance.as_str());
        for v in &d.values {
            out.put_ascii(b' ');
            put_u64(out, *v);
        }
        out.put_ascii(b'\n');
    }
    for p in &s.processes {
        out.put_str("ps ");
        put_u64(out, u64::from(p.pid));
        out.put_ascii(b' ');
        out.put_str(p.comm.as_str());
        out.put_ascii(b' ');
        put_u64(out, u64::from(p.uid));
        for v in &p.values {
            out.put_ascii(b' ');
            put_u64(out, *v);
        }
        out.put_ascii(b'\n');
    }
}

/// Append the `$`/`!` header block to `out`.
pub fn render_header_into(h: &HostHeader, out: &mut Vec<u8>) {
    render_header(h, out);
}

/// Append one rendered sample to `out`, exactly as it would be appended
/// to an existing host-day log.
pub fn render_sample_into(s: &Sample, out: &mut Vec<u8>) {
    render_sample(s, out);
}

/// Append a complete single-sample daemon message (header, optional
/// `$seq` line, one sample) to `out`. Callers on the hot path keep one
/// buffer and `clear()` it between messages so the capacity — and the
/// header bytes' worth of growth — is paid once, not per sample.
pub fn render_message_into(h: &HostHeader, s: &Sample, seq: Option<u64>, out: &mut Vec<u8>) {
    render_header(h, out);
    if let Some(n) = seq {
        render_seq(n, out);
    }
    render_sample(s, out);
}

/// Append a whole raw file (header, optional `$seq`, all samples).
pub fn render_file_into(f: &RawFile, out: &mut Vec<u8>) {
    render_header(&f.header, out);
    if let Some(n) = f.seq {
        render_seq(n, out);
    }
    for s in &f.samples {
        render_sample(s, out);
    }
}

/// Parse a raw-stats message directly from bytes: one UTF-8 validation
/// pass, then the same grammar as [`RawFile::parse`] — no owned
/// `String` is ever built. This is the consumer-side entry point for
/// payloads arriving off the broker.
pub fn parse_bytes(bytes: &[u8]) -> Result<RawFile, ParseError> {
    let text = std::str::from_utf8(bytes).map_err(|e| ParseError {
        line: 0,
        // alloc: cold (invalid-UTF-8 error path; the happy path never gets here)
        message: format!(
            "payload is not UTF-8 (invalid byte at offset {})",
            e.valid_up_to()
        ),
    })?;
    RawFile::parse(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{DeviceRecord, PsRecord, SimTimeRepr};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use tacc_simnode::intern::Sym;
    use tacc_simnode::schema::DeviceType;
    use tacc_simnode::topology::CpuArch;
    use tacc_simnode::SimTime;

    #[test]
    fn put_u64_matches_display() {
        for v in [
            0u64,
            1,
            9,
            10,
            99,
            100,
            12345,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            assert_eq!(buf, v.to_string().into_bytes());
            let mut s = String::new();
            put_u64(&mut s, v);
            assert_eq!(s, v.to_string());
        }
    }

    #[test]
    fn byte_and_string_renders_are_identical() {
        let f = proptest_file(
            "c401-0001",
            vec![("scratch", vec![100, 5000])],
            vec![(1001, "wrf.exe", 5000)],
        );
        let mut bytes = Vec::new();
        render_file_into(&f, &mut bytes);
        assert_eq!(bytes, f.render().into_bytes());
        let mut msg_bytes = Vec::new();
        render_message_into(&f.header, &f.samples[0], Some(7), &mut msg_bytes);
        assert_eq!(
            msg_bytes,
            RawFile::render_message_with_seq(&f.header, &f.samples[0], 7).into_bytes()
        );
    }

    #[test]
    fn render_into_appends_and_reuses_capacity() {
        let f = proptest_file("h", vec![("scratch", vec![1, 2])], vec![]);
        let mut buf = Vec::new();
        render_message_into(&f.header, &f.samples[0], None, &mut buf);
        let first = buf.clone();
        let cap = buf.capacity();
        buf.clear();
        render_message_into(&f.header, &f.samples[0], None, &mut buf);
        assert_eq!(buf, first);
        assert_eq!(buf.capacity(), cap, "reuse must not reallocate");
    }

    #[test]
    fn parse_bytes_rejects_invalid_utf8() {
        let e = parse_bytes(&[0x24, 0xFF, 0xFE]).unwrap_err();
        assert!(e.message.contains("UTF-8"), "{e}");
    }

    /// Build a one-sample file with the Mdc+Ps schemas.
    fn proptest_file(
        host: &str,
        mdc: Vec<(&str, Vec<u64>)>,
        procs: Vec<(u32, &str, u32)>,
    ) -> RawFile {
        let arch = CpuArch::Haswell;
        let mut schemas = BTreeMap::new();
        if !mdc.is_empty() {
            schemas.insert(DeviceType::Mdc, DeviceType::Mdc.schema(arch));
        }
        if !procs.is_empty() {
            schemas.insert(DeviceType::Ps, DeviceType::Ps.schema(arch));
        }
        let ps_len = DeviceType::Ps.schema(arch).len();
        RawFile {
            header: HostHeader {
                hostname: Sym::new(host),
                arch,
                schemas,
            },
            seq: None,
            samples: vec![Sample {
                time: SimTimeRepr::from(SimTime::from_secs(1_443_657_600)),
                jobids: vec!["3001".to_string()],
                marks: vec!["begin 3001".to_string()],
                devices: mdc
                    .into_iter()
                    .map(|(inst, values)| DeviceRecord {
                        dev_type: DeviceType::Mdc,
                        instance: Sym::new(inst),
                        values: values.into(),
                    })
                    .collect(),
                processes: procs
                    .into_iter()
                    .map(|(pid, comm, uid)| PsRecord {
                        pid,
                        comm: Sym::new(comm),
                        uid,
                        values: vec![0; ps_len].into(),
                    })
                    .collect(),
            }],
        }
    }

    /// Single non-whitespace tokens: instance names, comms, and
    /// hostnames ride the whitespace-delimited wire format, so any
    /// non-whitespace text — including non-ASCII — must round-trip.
    /// The strategy mixes arbitrary identifier-ish tokens with the
    /// nasty cases: non-ASCII scripts, zero-width (whitespace-adjacent)
    /// codepoints, format metacharacters (`$`/`!`/`%`-leading,
    /// digit-leading, device-type-named, bare `-`) — all fine in the
    /// positions these tokens occupy (never at line starts).
    fn spicy_token() -> impl Strategy<Value = String> {
        prop_oneof![
            "[a-zA-Z0-9_./:+-]{1,12}",
            Just("héllo".to_string()),
            Just("名前".to_string()),
            Just("x\u{200b}y".to_string()),
            Just("$seq".to_string()),
            Just("!cpu".to_string()),
            Just("%begin".to_string()),
            Just("-".to_string()),
            Just("0".to_string()),
            Just("mdc".to_string()),
        ]
    }

    proptest! {
        /// The tentpole contract: arbitrary raw files round-trip through
        /// the byte codec, `parse_bytes(render_into(f)) == f`.
        #[test]
        fn roundtrip_arbitrary_files_through_bytes(
            host in spicy_token(),
            insts in collection::vec(spicy_token(), 1..4),
            comms in collection::vec(spicy_token(), 0..3),
            vals in collection::vec(any::<u64>(), 2),
            seq_raw in (any::<bool>(), any::<u64>()),
            t in 1u64..4_000_000_000,
        ) {
            let seq = seq_raw.0.then_some(seq_raw.1);
            let mdc: Vec<(&str, Vec<u64>)> = insts
                .iter()
                .map(|i| (i.as_str(), vals.clone()))
                .collect();
            let procs: Vec<(u32, &str, u32)> = comms
                .iter()
                .enumerate()
                .map(|(i, c)| (i as u32 + 1, c.as_str(), 5000))
                .collect();
            let mut f = proptest_file(&host, mdc, procs);
            f.seq = seq;
            f.samples[0].time = SimTimeRepr::from(SimTime::from_secs(t));
            let mut buf = Vec::new();
            render_file_into(&f, &mut buf);
            let parsed = parse_bytes(&buf).unwrap();
            prop_assert_eq!(parsed, f);
        }

        /// Both sinks write any integer exactly as `Display` does.
        #[test]
        fn put_u64_matches_display_for_arbitrary_values(v in any::<u64>(), shift in 0u32..64) {
            // Shifted so every digit count is drawn, not just 19-20.
            let v = v >> shift;
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            prop_assert_eq!(buf, v.to_string().into_bytes());
            let mut s = String::new();
            put_u64(&mut s, v);
            prop_assert_eq!(s, v.to_string());
        }

        /// Byte rendering and legacy String rendering agree bytewise for
        /// arbitrary inputs, so the two APIs cannot drift.
        #[test]
        fn byte_render_equals_string_render(
            host in spicy_token(),
            inst in spicy_token(),
            vals in collection::vec(any::<u64>(), 2),
        ) {
            let f = proptest_file(&host, vec![(inst.as_str(), vals)], vec![]);
            let mut buf = Vec::new();
            render_file_into(&f, &mut buf);
            prop_assert_eq!(buf, f.render().into_bytes());
        }
    }
}

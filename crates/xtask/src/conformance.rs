//! Schema ↔ metric conformance check.
//!
//! Table I metrics are computed from raw events by name; a typo'd or
//! removed event silently yields `None` at runtime (the accumulator
//! treats an unknown event as "device absent"). This check makes the
//! contract static at lint time:
//!
//! 1. every event a [`MetricId`] declares it consumes (via
//!    `MetricId::events()`) exists in the device schema of at least one
//!    supported architecture, and events missing on *some* arch must be
//!    in the known arch-gated set (Nehalem has 4 programmable counters,
//!    so the `LOAD_*` cache events don't exist there);
//! 2. every such event's [`Unit`] has a usable `to_base()` conversion
//!    (finite, positive — the rate math divides by it);
//! 3. `MetricId::ALL` is exhaustive (enforced at compile time by the
//!    `define_metric_ids!` macro; re-asserted here for the report);
//! 4. every `(DeviceType, "event")` pair referenced *textually* in the
//!    accumulator source (`crates/metrics/src/accum.rs`) also resolves
//!    against some schema — catching consumers that bypass `events()`;
//! 5. the accumulator keys its per-instance state by `(DeviceType,
//!    Sym)` — interned symbols, not owned strings. A `(DeviceType,
//!    String)` key would reintroduce a per-sample allocation on the
//!    accumulate hot path;
//! 6. shard routing covers every metric-bearing series key: for each
//!    event a `MetricId` consumes, the tsdb's `shard_of` must be
//!    deterministic, in range, and — across a population of hosts —
//!    surjective for every supported shard count, so no shard is
//!    structurally unreachable (an unreachable shard would leave its
//!    WAL, segment and block cache idle while the others take its keys,
//!    and hide data-placement bugs; a shard is a slice of the key
//!    space, not a unit of concurrency).

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
use tacc_metrics::MetricId;
use tacc_simnode::schema::DeviceType;
use tacc_simnode::topology::CpuArch;
use tacc_tsdb::{shard_of, SeriesKey, DEFAULT_SHARDS};

/// Architectures the conformance check validates against.
pub const ARCHES: [CpuArch; 3] = [CpuArch::Nehalem, CpuArch::SandyBridge, CpuArch::Haswell];

/// Event gaps that are expected on specific architectures: Nehalem's 4
/// programmable counters can't host the cache-load events.
const KNOWN_ARCH_GAPS: &[(CpuArch, DeviceType, &str)] = &[
    (CpuArch::Nehalem, DeviceType::Cpu, "LOAD_L2_HIT"),
    (CpuArch::Nehalem, DeviceType::Cpu, "LOAD_LLC_HIT"),
];

/// Workspace-relative path of the accumulator source scanned in step 4.
pub const ACCUM_SRC: &str = "crates/metrics/src/accum.rs";

/// Run the conformance check. Returns violations (empty = pass).
pub fn check(root: &Path) -> Result<Vec<String>, String> {
    let mut errors = Vec::new();

    // 3. Exhaustiveness (compile-time guaranteed; asserted for the report).
    if MetricId::ALL.len() != MetricId::COUNT {
        errors.push(format!(
            "conformance: MetricId::ALL has {} entries but COUNT is {}",
            MetricId::ALL.len(),
            MetricId::COUNT
        ));
    }

    // 1 + 2. Declared event consumption resolves against the schemas.
    for id in MetricId::ALL {
        let events = id.events();
        if events.is_empty() {
            errors.push(format!(
                "conformance: {id:?} declares no consumed events — \
                 every Table I metric must come from somewhere"
            ));
            continue;
        }
        for &(device, event) in events {
            check_event(&mut errors, format!("{id:?}"), device, event);
        }
    }

    // 4. Textual references in the accumulator source.
    let accum_path = root.join(ACCUM_SRC);
    let source = fs::read_to_string(&accum_path)
        .map_err(|e| format!("conformance: read {}: {e}", accum_path.display()))?;
    for (device, event) in extract_device_events(&source) {
        check_event(
            &mut errors,
            format!("{ACCUM_SRC} reference"),
            device,
            &event,
        );
    }

    // 5. Interned accumulator keys.
    errors.extend(check_interned_keys(&source));

    // 6. Shard routing over every metric-bearing series key.
    errors.extend(check_shard_routing());

    Ok(errors)
}

/// Shard counts the routing check must stay surjective for (powers of
/// two up to the default).
pub const SHARD_COUNTS: [usize; 3] = [2, 4, DEFAULT_SHARDS];

/// Hosts used to populate the routing check: enough nodes that every
/// shard ought to see traffic on a real rack.
const ROUTING_HOSTS: usize = 32;

/// Step 6: every `(DeviceType, event)` a metric consumes must route
/// deterministically, in range, and cover every shard across hosts.
fn check_shard_routing() -> Vec<String> {
    let mut errors = Vec::new();
    let mut keys: Vec<(String, SeriesKey)> = Vec::new();
    for id in MetricId::ALL {
        for &(device, event) in id.events() {
            for h in 0..ROUTING_HOSTS {
                let host = format!("c401-{h:04}");
                let key = SeriesKey::new(&host, device.name(), "dev0", event);
                keys.push((format!("{id:?} {device:?}/{event} on {host}"), key));
            }
        }
    }
    for n in SHARD_COUNTS {
        let mut hit: BTreeSet<usize> = BTreeSet::new();
        for (who, key) in &keys {
            let s = shard_of(key, n);
            if s >= n {
                errors.push(format!(
                    "conformance: shard_of({who}, {n}) = {s} is out of range"
                ));
            }
            if shard_of(key, n) != s {
                errors.push(format!(
                    "conformance: shard_of({who}, {n}) is not deterministic"
                ));
            }
            hit.insert(s);
        }
        if hit.len() != n {
            let missing: Vec<usize> = (0..n).filter(|s| !hit.contains(s)).collect();
            errors.push(format!(
                "conformance: shard routing over {} metric series keys \
                 leaves shards {missing:?} of {n} empty — the hash is not \
                 spreading series keys",
                keys.len()
            ));
        }
    }
    errors
}

/// Step 5: the accumulator's per-instance maps must be `Sym`-keyed.
fn check_interned_keys(source: &str) -> Vec<String> {
    let mut errors = Vec::new();
    if source.contains("(DeviceType, String)") {
        errors.push(format!(
            "conformance: {ACCUM_SRC} keys per-instance state by \
             (DeviceType, String) — use interned (DeviceType, Sym) keys \
             so the accumulate hot path stays allocation-free"
        ));
    }
    if !source.contains("(DeviceType, Sym)") {
        errors.push(format!(
            "conformance: {ACCUM_SRC} has no (DeviceType, Sym)-keyed \
             per-instance state — the accumulator is expected to key \
             previous-sample values by interned instance symbols"
        ));
    }
    errors
}

/// Validate one `(device, event)` consumption site against the schemas.
fn check_event(errors: &mut Vec<String>, who: String, device: DeviceType, event: &str) {
    let mut present_on = Vec::new();
    let mut missing_on = Vec::new();
    for arch in ARCHES {
        let schema = device.schema(arch);
        match schema.index_of(event) {
            Some(idx) => {
                present_on.push(arch);
                let unit = schema.events[idx].unit;
                let factor = unit.to_base();
                if !factor.is_finite() || factor <= 0.0 {
                    errors.push(format!(
                        "conformance: {who}: {device:?}/{event} has unit \
                         {unit:?} whose to_base() = {factor} is unusable"
                    ));
                }
            }
            None => missing_on.push(arch),
        }
    }
    if present_on.is_empty() {
        errors.push(format!(
            "conformance: {who}: event {device:?}/{event} exists in no \
             supported architecture's schema"
        ));
        return;
    }
    for arch in missing_on {
        let known = KNOWN_ARCH_GAPS
            .iter()
            .any(|&(a, d, e)| a == arch && d == device && e == event);
        if !known {
            errors.push(format!(
                "conformance: {who}: event {device:?}/{event} is missing on \
                 {arch:?} and is not a known arch-gated gap"
            ));
        }
    }
}

/// Extract `DeviceType::Xxx, "event"` pairs from source text. Only
/// pairs where the variant is directly followed by a comma and a string
/// literal are taken (match arms and `cum_of` calls); bare variant
/// mentions and wildcard arms are ignored.
pub fn extract_device_events(source: &str) -> Vec<(DeviceType, String)> {
    let needle = "DeviceType::";
    let mut out = Vec::new();
    let mut rest = source;
    while let Some(pos) = rest.find(needle) {
        rest = &rest[pos + needle.len()..];
        let variant: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let tail = rest[variant.len()..].trim_start();
        let Some(tail) = tail.strip_prefix(',') else {
            continue;
        };
        let tail = tail.trim_start();
        let Some(tail) = tail.strip_prefix('"') else {
            continue;
        };
        let Some(end) = tail.find('"') else { continue };
        let event = tail[..end].to_string();
        let Some(device) = DeviceType::ALL
            .into_iter()
            .find(|d| format!("{d:?}") == variant)
        else {
            continue;
        };
        out.push((device, event));
    }
    out.sort_by_key(|(d, e)| (format!("{d:?}"), e.clone()));
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_match_arms_and_cum_of_calls() {
        let src = r#"
            match (rec.dev_type, name) {
                (DeviceType::Mdc, "reqs") => {}
                (DeviceType::Lnet, "tx_bytes") | (DeviceType::Lnet, "rx_bytes") => {}
                (DeviceType::Cpustat, _) => {}
                _ => {}
            }
            let x = self.cum_of(DeviceType::Mem, "MemUsed");
            let y = rec.dev_type == DeviceType::Ib;
        "#;
        let pairs = extract_device_events(src);
        assert!(pairs.contains(&(DeviceType::Mdc, "reqs".into())));
        assert!(pairs.contains(&(DeviceType::Lnet, "rx_bytes".into())));
        assert!(pairs.contains(&(DeviceType::Mem, "MemUsed".into())));
        assert!(!pairs.iter().any(|(d, _)| *d == DeviceType::Cpustat));
        assert!(!pairs.iter().any(|(d, _)| *d == DeviceType::Ib));
    }

    #[test]
    fn shard_routing_covers_all_counts() {
        let errs = check_shard_routing();
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn interned_key_check_flags_string_keys() {
        // Assembled at runtime so this fixture itself never matches a
        // source-tree sweep for the banned key type.
        let bad = format!(
            "prev: HashMap<(DeviceType, {}), (u64, Vec<u64>)>,",
            "String"
        );
        let errs = check_interned_keys(&bad);
        assert_eq!(errs.len(), 2, "{errs:?}"); // String key present, Sym key absent
        let good = "prev: HashMap<(DeviceType, Sym), (u64, Vec<u64>)>,";
        assert!(check_interned_keys(good).is_empty());
    }
}

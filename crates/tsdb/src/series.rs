//! Series keys and tag filters.
//!
//! Tag values repeat across millions of points (every series of a host
//! shares its hostname; every `mdc` series the string `mdc`), so tags
//! are interned [`Sym`]s: a key is four word-sized ids, comparisons are
//! integer compares with a string-order fallback, and constructing a
//! key for lookup allocates nothing after first sight of each tag.
//! Resolution back to text ([`Sym::as_str`]) happens at display time in
//! the portal, not in the storage engine.

use std::fmt;
use tacc_simnode::intern::Sym;

/// The 4-tuple of tags labelling every series (§VI-A): host name, device
/// type, device name, and event name.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Host name, e.g. `c401-0001`.
    pub host: Sym,
    /// Device type, e.g. `mdc`.
    pub dev_type: Sym,
    /// Device (instance) name, e.g. `scratch`.
    pub device: Sym,
    /// Event name, e.g. `reqs`.
    pub event: Sym,
}

impl SeriesKey {
    /// Shorthand constructor (interns each tag).
    pub fn new(host: &str, dev_type: &str, device: &str, event: &str) -> SeriesKey {
        SeriesKey {
            host: Sym::new(host),
            dev_type: Sym::new(dev_type),
            device: Sym::new(device),
            event: Sym::new(event),
        }
    }
}

impl fmt::Display for SeriesKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{}.{}:{}",
            self.dev_type, self.device, self.event, self.host
        )
    }
}

/// A filter over series keys: `None` on a tag means "any value"
/// (aggregate along that tag).
///
/// Builders take `&str` and intern; matching is then id equality.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TagFilter {
    /// Required host (None = all hosts).
    pub host: Option<Sym>,
    /// Required device type.
    pub dev_type: Option<Sym>,
    /// Required device name.
    pub device: Option<Sym>,
    /// Required event name.
    pub event: Option<Sym>,
}

impl TagFilter {
    /// Match every series.
    pub fn any() -> TagFilter {
        TagFilter::default()
    }

    /// Restrict to a host.
    pub fn host(mut self, h: &str) -> Self {
        self.host = Some(Sym::new(h));
        self
    }

    /// Restrict to a device type.
    pub fn dev_type(mut self, d: &str) -> Self {
        self.dev_type = Some(Sym::new(d));
        self
    }

    /// Restrict to a device name.
    pub fn device(mut self, d: &str) -> Self {
        self.device = Some(Sym::new(d));
        self
    }

    /// Restrict to an event name.
    pub fn event(mut self, e: &str) -> Self {
        self.event = Some(Sym::new(e));
        self
    }

    /// Whether `key` satisfies the filter.
    pub fn matches(&self, key: &SeriesKey) -> bool {
        fn ok(want: Option<Sym>, have: Sym) -> bool {
            want.map(|w| w == have).unwrap_or(true)
        }
        ok(self.host, key.host)
            && ok(self.dev_type, key.dev_type)
            && ok(self.device, key.device)
            && ok(self.event, key.event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_matching() {
        let k = SeriesKey::new("c1", "mdc", "scratch", "reqs");
        assert!(TagFilter::any().matches(&k));
        assert!(TagFilter::any().dev_type("mdc").event("reqs").matches(&k));
        assert!(!TagFilter::any().dev_type("osc").matches(&k));
        assert!(!TagFilter::any().host("c2").matches(&k));
        assert!(TagFilter::any().device("scratch").matches(&k));
    }

    #[test]
    fn display_is_readable() {
        let k = SeriesKey::new("c1", "mdc", "scratch", "reqs");
        assert_eq!(k.to_string(), "mdc.scratch.reqs:c1");
    }

    #[test]
    fn keys_with_equal_tags_are_equal_and_order_stringwise() {
        let a = SeriesKey::new("c1", "mdc", "scratch", "reqs");
        let b = SeriesKey::new("c1", "mdc", "scratch", "reqs");
        assert_eq!(a, b);
        let c = SeriesKey::new("c1", "mdc", "scratch", "wait");
        assert!(a < c, "event 'reqs' sorts before 'wait'");
    }
}

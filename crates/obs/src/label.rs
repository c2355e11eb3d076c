//! Cheap shared display labels for spans, steps and classes.
//!
//! A traced run names millions of spans, but only a few hundred distinct
//! names exist: the catalog's class and blueprint labels, the boot
//! timeline's step labels, the engine's resource names, and a handful of
//! fixed strings ("queue wait", "network", the attestation plane's steps).
//! A [`Label`] is either a `&'static str` or a reference-counted
//! `Arc<str>`, so copying one onto a span costs at most a refcount bump,
//! never an allocation. It dereferences to `str`, compares with `&str`,
//! and formats exactly like the string it holds.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply clonable string.
#[derive(Clone)]
pub struct Label(Repr);

#[derive(Clone)]
enum Repr {
    Static(&'static str),
    Shared(Arc<str>),
}

impl Label {
    /// A label over a static string (no allocation, no refcount).
    pub const fn new_static(s: &'static str) -> Self {
        Label(Repr::Static(s))
    }

    /// The label's text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared(s) => s,
        }
    }
}

impl Deref for Label {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&'static str> for Label {
    fn from(s: &'static str) -> Self {
        Label::new_static(s)
    }
}

impl From<String> for Label {
    fn from(s: String) -> Self {
        Label(Repr::Shared(s.into()))
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Label) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Label {}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Label {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Label> for &str {
    fn eq(&self, other: &Label) -> bool {
        *self == other.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_and_shared_labels_agree_on_text() {
        let a = Label::from("wait psp3");
        let b = Label::from(format!("wait {}", "psp3"));
        assert_eq!(a, b);
        assert_eq!(a, "wait psp3");
        assert_eq!("wait psp3", b);
        assert_eq!(format!("[{b:>10}]"), "[ wait psp3]");
        assert_eq!(format!("{a:?}"), "\"wait psp3\"");
        assert!(b.starts_with("wait"), "derefs to str");
    }

    #[test]
    fn clones_share_the_allocation() {
        let a = Label::from(String::from("aws-snp cold"));
        let b = a.clone();
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
    }
}

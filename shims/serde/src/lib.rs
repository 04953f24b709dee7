//! In-tree stand-in for `serde`, built because the build environment has no
//! registry access.  It exposes exactly the surface this workspace uses:
//!
//! * a [`Serialize`] trait that renders the value as JSON into a `String`
//!   (consumed by the `serde_json` shim's `to_string`);
//! * a marker [`Deserialize`] trait (derived but never driven by a real
//!   deserializer anywhere in the workspace);
//! * `#[derive(Serialize, Deserialize)]` via the sibling `serde_derive`
//!   proc-macro shim.
//!
//! The derive and the impls below cover structs (named, tuple, unit) and
//! enums (unit, newtype, tuple and struct variants) with serde's default
//! externally-tagged representation, which is all the workspace's types
//! need.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

/// JSON-render the value into `out`.
///
/// This replaces serde's visitor-based `Serialize`; every caller in the
/// workspace ultimately wants a JSON string, so the trait goes straight
/// there.
pub trait Serialize {
    /// Append the JSON encoding of `self` to `out`.
    fn serialize_json(&self, out: &mut String);
}

/// Marker trait standing in for serde's `Deserialize`.
///
/// Nothing in the workspace drives a deserializer, so the derive only has
/// to record that the type opted in.
pub trait Deserialize: Sized {}

/// Escape and append a JSON string literal.
fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
        impl Deserialize for $t {}
    )*};
}

impl_int!(i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, u128, usize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut String) {
                if self.is_finite() {
                    // `{}` prints integral floats without a fractional part
                    // ("1"), which is still a valid JSON number.
                    out.push_str(&self.to_string());
                } else {
                    // serde_json maps non-finite floats to null.
                    out.push_str("null");
                }
            }
        }
        impl Deserialize for $t {}
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn serialize_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}
impl Deserialize for bool {}

impl Serialize for char {
    fn serialize_json(&self, out: &mut String) {
        write_json_string(&self.to_string(), out);
    }
}
impl Deserialize for char {}

impl Serialize for str {
    fn serialize_json(&self, out: &mut String) {
        write_json_string(self, out);
    }
}

impl Serialize for String {
    fn serialize_json(&self, out: &mut String) {
        write_json_string(self, out);
    }
}
impl Deserialize for String {}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out);
    }
}
impl<T: Deserialize> Deserialize for Box<T> {}

fn write_json_seq<'a, T: Serialize + 'a>(
    items: impl Iterator<Item = &'a T>,
    out: &mut String,
) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.serialize_json(out);
    }
    out.push(']');
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_json(&self, out: &mut String) {
        write_json_seq(self.iter(), out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize_json(&self, out: &mut String) {
        write_json_seq(self.iter(), out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json(&self, out: &mut String) {
        write_json_seq(self.iter(), out);
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Some(v) => v.serialize_json(out),
            None => out.push_str("null"),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {}

impl Serialize for () {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("null");
    }
}
impl Deserialize for () {}

macro_rules! impl_tuple {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize_json(&self, out: &mut String) {
                out.push('[');
                let mut first = true;
                $(
                    if !first { out.push(','); }
                    first = false;
                    self.$idx.serialize_json(out);
                )+
                let _ = first;
                out.push(']');
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {}
    )*};
}

impl_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

fn write_json_map<'a, K: std::fmt::Display + 'a, V: Serialize + 'a>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
    out: &mut String,
) {
    out.push('{');
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(&k.to_string(), out);
        out.push(':');
        v.serialize_json(out);
    }
    out.push('}');
}

impl<K: std::fmt::Display, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {
    fn serialize_json(&self, out: &mut String) {
        write_json_map(self.iter(), out);
    }
}

impl<K: std::fmt::Display, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn serialize_json(&self, out: &mut String) {
        write_json_map(self.iter(), out);
    }
}

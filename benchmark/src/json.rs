//! JSON in and out: the workspace's strict parser, and the two helpers the
//! result files need on top of it.

pub use dsg_util::json::{parse, JsonValue as Value};
use std::collections::BTreeMap;

/// The members of `value`, if it is an object.
pub fn object(value: &Value) -> Option<&BTreeMap<String, Value>> {
    match value {
        Value::Obj(members) => Some(members),
        _ => None,
    }
}

/// Quotes `s` as a JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_round_trips_through_the_parser() {
        let s = "a\"b\\c\nd\u{1}";
        assert_eq!(parse(&quote(s)).expect("valid").as_str(), Some(s));
    }
}
